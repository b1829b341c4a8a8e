(** Function-pointer detection and validation (§IV-E).

    Every candidate pointer is validated by speculative conservative
    disassembly checking the paper's four error classes; survivors are
    accepted one at a time, each immediately refreshing the disassembly
    and the pointer collection (so later candidates are judged against
    the updated function extents, as the paper specifies).

    By default the iteration is incremental: accepted pointers extend
    the committed disassembly ({!Fetch_analysis.Recursive.extend}), the
    ref table is folded forward ({!Refs.incr_refresh}), and permanent
    rejection verdicts are cached across rounds. *)

type reject =
  | Invalid_opcode  (** error (i) *)
  | Mid_instruction  (** error (ii) *)
  | Transfer_into_function  (** error (iii) *)
  | Bad_call_conv  (** error (iv) *)

(** The stable rejection id used in counters and ledger events
    ([invalid_opcode], [mid_instruction], [into_function], [callconv]). *)
val reject_name : reject -> string

(** Interval map from committed block bytes to their owning entry.
    Overlapping blocks (shared code) resolve byte-wise to the highest
    owning entry ({!Fetch_util.Interval_map.add_max}), so the result is
    independent of fold order and an incrementally grown map equals the
    from-scratch rebuild. *)
val function_extents :
  Fetch_analysis.Recursive.result -> int Fetch_util.Interval_map.t

(** Incrementally maintained function-extent map: persists across
    detection rounds, folding in only functions not yet seen. *)
type extents

val extents_create : unit -> extents

(** Fold the not-yet-seen functions of [res] into the map and return
    it.  Sound only when successive results only add functions and
    never mutate committed records — what
    {!Fetch_analysis.Recursive.extend} guarantees; then the result
    equals [function_extents res].  (The differential test in the suite
    holds the two equal after every accepted pointer.) *)
val extents_refresh :
  extents -> Fetch_analysis.Recursive.result -> int Fetch_util.Interval_map.t

(** Is the address strictly inside a committed instruction?  O(log n)
    against the per-instruction span map. *)
val mid_instruction : Fetch_analysis.Recursive.result -> int -> bool

type verdict =
  | Accept
  | Known_function
      (** already a detected entry — not a §IV-E validation subject and
          not counted as one *)
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

(** Validate one candidate against the committed results. *)
val validate :
  Fetch_analysis.Loaded.t ->
  Fetch_analysis.Recursive.result ->
  extents:int Fetch_util.Interval_map.t ->
  int ->
  verdict

(** [Incremental] extends the committed state per accepted pointer;
    [Rescan] re-runs disassembly and ref collection from scratch each
    round.  Both share the validation / counting / caching driver, so
    detection results and §IV-E counters are strategy-invariant — the
    differential property test in the suite holds the two against each
    other. *)
type strategy = Incremental | Rescan

val strategy_name : strategy -> string

(** Iterated detection: run the engine from [seeds], accept legitimate
    pointers one at a time until none remains (or [max_rounds] is
    exhausted — announced via the [xref.budget_exhausted] counter and
    ledger event when candidates are still pending); returns the final
    engine result and the enlarged seed set.

    [on_commit] fires after every accepted pointer with the candidate
    and the already-extended result — a test seam for watching the
    detection state grow one commit at a time. *)
val detect :
  ?config:Fetch_analysis.Recursive.config ->
  ?strategy:strategy ->
  ?max_rounds:int ->
  ?on_commit:(cand:int -> Fetch_analysis.Recursive.result -> unit) ->
  Fetch_analysis.Loaded.t ->
  seeds:int list ->
  Fetch_analysis.Recursive.result * int list
