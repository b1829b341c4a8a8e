(** Function-pointer detection and validation (§IV-E).

    Every candidate pointer is validated by speculative conservative
    disassembly checking the paper's four error classes; survivors are
    accepted one at a time, each immediately refreshing the disassembly
    and the pointer collection (so later candidates are judged against
    the updated function extents, as the paper specifies).

    The iteration is incremental: an accepted pointer grows the committed
    disassembly in place ({!Fetch_analysis.Recursive.extend}), the ref
    table ({!Refs.add_delta}) folds exactly the delta that call returns,
    and error (iii) reads the code bits the extension sets in the
    instruction table ({!Fetch_util.Insn_index.in_code}).  The
    candidates still to judge are one ordered set: it gains only the
    candidates a delta adds, and a candidate leaves it for good once it
    is a detected entry, accepted, or rejected permanently.  {!validate} is exported as the shared
    primitive of the suite's from-scratch reference model, which re-runs
    disassembly and ref collection every round, re-validates every
    candidate, and must reach the same result. *)

type reject =
  | Invalid_opcode  (** error (i) *)
  | Mid_instruction  (** error (ii) *)
  | Transfer_into_function  (** error (iii) *)
  | Bad_call_conv  (** error (iv) *)

type verdict =
  | Accept
  | Rejected of {
      reason : reject;
      fields : (string * Fetch_obs.Provenance.value) list;
          (** evidence operands for the decision ledger: violation site,
              entered function (the highest entry whose blocks hold the
              byte, only while the ledger records), call-convention
              violation register *)
      permanent : bool;
          (** can never flip while the committed state only grows (the
              candidate itself is outside text, mid-instruction, or
              inside a committed body); speculative-walk and
              calling-convention rejections are not permanent *)
    }

(** Validate one candidate against the committed results.  [cand]
    must not be a detected entry of the result: those are not §IV-E
    validation subjects. *)
val validate :
  Fetch_analysis.Loaded.t -> Fetch_analysis.Recursive.result -> int -> verdict

(** Iterated detection: run the engine from [seeds], accept legitimate
    pointers one at a time until none remains (or [max_rounds] is
    exhausted — announced via the [xref.budget_exhausted] counter and
    ledger event when candidates are still pending); returns the final
    engine result, the enlarged seed set ([seeds] plus every accepted
    pointer, ascending and deduplicated, also when nothing is accepted)
    and the result's reference census.  Each round scans the pending
    candidates in ascending address order and accepts the first that
    validates.  The census is collected once from the seed disassembly and
    grown with each commit's delta, so it holds the refs
    {!Refs.collect} finds on the final result: later stages read it
    instead of collecting again.

    [on_commit] fires after every accepted pointer with the candidate,
    the already-extended result and the delta the extension added — a
    test seam for watching the detection state grow one commit at a
    time.  The result is grown in place, so the one passed is the one
    returned. *)
val detect :
  ?max_rounds:int ->
  ?on_commit:
    (cand:int ->
    Fetch_analysis.Recursive.result ->
    Fetch_analysis.Recursive.delta ->
    unit) ->
  Fetch_analysis.Loaded.t ->
  seeds:int list ->
  Fetch_analysis.Recursive.result * int list * Refs.t
