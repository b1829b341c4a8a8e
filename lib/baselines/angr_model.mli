(** Model of ANGR's CFGFast function-start strategy stack (§IV-C/D).

    FDE starts + symbols → recursive disassembly → function merging
    (default on; deletes true starts) → alignment handling (first
    non-padding instruction of padding-led gaps) → loose prologue
    matching over every gap byte → optional heuristic tail-call
    detection → optional linear gap scan. *)

type config = {
  merge : bool;
  fsig : bool;
  tcall : bool;
  scan : bool;
}

val default : config

val detect : ?config:config -> Fetch_analysis.Loaded.t -> int list
