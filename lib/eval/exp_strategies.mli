(** Strategy-stack experiments: Q2, Q3 and Figure 5 — how many binaries
    each combination of FDEs + safe/unsafe approaches detects with full
    coverage and full accuracy. *)

type strategy = {
  sname : string;
  run : Fetch_analysis.Loaded.t -> int list;
}

(** Figure 5a stacks: FDE; +Rec+CFR; +Rec; +Fsig; +Tcall. *)
val ghidra_stacks : strategy list

(** Figure 5c stacks: FDE; +Rec (safe); +Xref; +Fix (full FETCH). *)
val fetch_stacks : strategy list

type stack_result = {
  strategy : string;
  totals : Metrics.totals;
}

val run : ?scale:float -> unit -> (string * stack_result list) list
val render : (string * stack_result list) list -> string
