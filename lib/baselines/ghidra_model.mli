(** Model of GHIDRA's function-start strategy stack (§IV-C/D).

    FDE starts + symbols → recursive disassembly → control-flow repairing
    (default on; removes byte-adjacent unreferenced starts after
    non-returning functions, with over-approximate noreturn knowledge) →
    thunk splitting → strict prologue matching → optional
    heuristic tail-call detection (off by default, as in the product). *)

type config = {
  cfr : bool;
  fsig : bool;
  tcall : bool;
}

val default : config

val detect : ?config:config -> Fetch_analysis.Loaded.t -> int list
