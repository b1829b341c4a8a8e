(** Model of GHIDRA's function-start strategy stack (§IV-C/D).

    FDE starts + symbols → recursive disassembly → control-flow repairing
    (default on; removes unreferenced starts after non-returning functions,
    using its over-approximate noreturn knowledge) → thunk splitting →
    prologue matching (strict patterns, gap starts) → optional heuristic
    tail-call detection (off by default). *)

open Fetch_analysis

type config = {
  cfr : bool;
  fsig : bool;
  tcall : bool;
}

let default = { cfr = true; fsig = true; tcall = false }

(* Ghidra's noreturn view over-approximates: conditionally-noreturn
   functions count as plain noreturn. *)
let ghidra_noreturn (res : Recursive.result) e =
  Hashtbl.mem res.noreturn e || Hashtbl.mem res.cond_noreturn e

let detect ?(config = default) loaded =
  let res = Recursive.run loaded ~seeds:loaded.Loaded.seeds in
  let starts = Recursive.starts res in
  let starts =
    if config.cfr then
      Heuristics.control_flow_repair loaded res ~noreturn:(ghidra_noreturn res)
        starts
    else starts
  in
  let starts = Heuristics.thunk_targets loaded res @ starts in
  let starts =
    if config.fsig then
      let found =
        Heuristics.prologue_starts loaded res ~strictness:Prologue.Strict
          ~every_byte:false
      in
      found @ starts
    else starts
  in
  let starts =
    if config.tcall then
      Heuristics.tcall_starts_ghidra res ~threshold:48 @ starts
    else starts
  in
  List.sort_uniq compare starts
