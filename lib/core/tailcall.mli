(** Algorithm 1: tail-call detection and non-contiguous function merging
    (§V-B) — the fix for FDE-introduced false positives.

    For every direct/conditional jump leaving a function, the jump is a
    tail call iff (1) the stack height at the jump site is zero (rsp
    right below the return address), (2) the target satisfies the calling
    convention, and (3) the target is referenced somewhere other than
    jumps of the current function.  A jump that is not a tail call, whose
    target has its own FDE and is referenced only by jumps of the current
    function, connects two parts of one non-contiguous function: the
    parts are merged and the target removed from the start list. *)

type outcome = {
  kept_starts : int list;
  tail_calls : (int * int) list;  (** site, target *)
  merges : (int * int) list;  (** merged secondary start, parent entry *)
  skipped_incomplete : int;  (** functions skipped for incomplete CFI *)
}

(** Where the stack heights at jump sites come from.  The paper's choice
    is the CFI oracle; [Static] plugs in a static analysis instead — the
    ablation §V-B argues against. *)
type height_source =
  | Cfi_oracle
  | Static of Fetch_analysis.Stack_height.style

(** Run Algorithm 1 over the current detection result.  [refs] must be
    the reference census of exactly this result. *)
val run :
  heights:height_source ->
  refs:Refs.t ->
  Fetch_analysis.Loaded.t ->
  Fetch_analysis.Recursive.result ->
  outcome
