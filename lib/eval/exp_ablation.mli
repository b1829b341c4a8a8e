(** Ablation of FETCH's §V-B design choice: drive Algorithm 1 with the CFI
    height oracle (the paper) vs ANGR/DYNINST-style static stack-height
    analyses, and count false positives, false negatives and harmful
    merges (true multi-reference functions deleted). *)

type variant = {
  vname : string;
  config : Fetch_core.Pipeline.config;
}

type cell = {
  mutable fp : int;
  mutable fn : int;
  mutable harmful_merges : int;
  mutable tail_calls : int;
}

val run : ?scale:float -> unit -> (variant * cell) list
val render : (variant * cell) list -> string
