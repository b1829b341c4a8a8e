(** Function-pointer detection and validation (§IV-E).

    Every candidate pointer is validated by speculative conservative
    disassembly checking the paper's four error classes; survivors are
    accepted one at a time, each immediately refreshing the disassembly
    and the pointer collection (so later candidates are judged against
    the updated function extents, as the paper specifies).

    The iteration is incremental: accepted pointers extend the committed
    disassembly ({!Fetch_analysis.Recursive.extend}), the ref table is
    folded forward ({!Refs.incr_refresh}), and permanent rejection
    verdicts are cached across rounds.  {!validate} and the extent map
    are exported as the shared primitive of the suite's from-scratch
    reference model, which re-runs disassembly and ref collection every
    round, keeps no cache, and must reach the same result. *)

type reject =
  | Invalid_opcode  (** error (i) *)
  | Mid_instruction  (** error (ii) *)
  | Transfer_into_function  (** error (iii) *)
  | Bad_call_conv  (** error (iv) *)

(** Incrementally maintained function-extent map: committed block bytes
    to their owning entry, persisting across detection rounds and folding
    in only functions not yet seen.  Overlapping blocks (shared code)
    resolve byte-wise to the highest owning entry
    ({!Fetch_util.Interval_map.add_max}), so the map is independent of
    fold order. *)
type extents

val extents_create : unit -> extents

(** Fold the not-yet-seen functions of [res] into the map and return
    it.  Sound only when successive results only add functions and
    never mutate committed records — what
    {!Fetch_analysis.Recursive.extend} guarantees; then the result
    equals a fresh map's [extents_refresh] of [res].  (The differential
    test in the suite holds the two equal after every accepted
    pointer.) *)
val extents_refresh :
  extents -> Fetch_analysis.Recursive.result -> int Fetch_util.Interval_map.t

type verdict =
  | Accept
  | Rejected of {
      reason : reject;
      fields : (string * Fetch_obs.Provenance.value) list;
          (** evidence operands for the decision ledger: violation site,
              entered function, call-convention violation register *)
      permanent : bool;
          (** can never flip while the committed state only grows (the
              candidate itself is outside text, mid-instruction, or
              inside a committed body); speculative-walk and
              calling-convention rejections are not permanent *)
    }

(** Validate one candidate against the committed results.  [cand] must
    not be a detected entry of the result: those are not §IV-E
    validation subjects. *)
val validate :
  Fetch_analysis.Loaded.t ->
  Fetch_analysis.Recursive.result ->
  extents:int Fetch_util.Interval_map.t ->
  int ->
  verdict

(** Iterated detection: run the engine from [seeds], accept legitimate
    pointers one at a time until none remains (or [max_rounds] is
    exhausted — announced via the [xref.budget_exhausted] counter and
    ledger event when candidates are still pending); returns the final
    engine result and the enlarged seed set.

    [on_commit] fires after every accepted pointer with the candidate
    and the already-extended result — a test seam for watching the
    detection state grow one commit at a time. *)
val detect :
  ?max_rounds:int ->
  ?on_commit:(cand:int -> Fetch_analysis.Recursive.result -> unit) ->
  Fetch_analysis.Loaded.t ->
  seeds:int list ->
  Fetch_analysis.Recursive.result * int list
