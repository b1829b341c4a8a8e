(** Model of ANGR's CFGFast function-start strategy stack (§IV-C/D).

    FDE starts + symbols → recursive disassembly → function merging
    (default on; deletes true starts) → alignment handling (first
    non-padding instruction of padding-led gaps) → prologue matching
    (loose patterns, every byte of the gaps) → optional heuristic
    tail-call detection → optional linear gap scan. *)

open Fetch_analysis

type config = {
  merge : bool;
  fsig : bool;
  tcall : bool;
  scan : bool;
}

let default =
  { merge = true; fsig = true; tcall = false; scan = false }

let detect ?(config = default) loaded =
  let res = Recursive.run loaded ~seeds:loaded.Loaded.seeds in
  let starts = Recursive.starts res in
  let starts =
    if config.merge then
      let removed = Heuristics.angr_merge_removals res in
      List.filter (fun s -> not (List.mem s removed)) starts
    else starts
  in
  let starts = Heuristics.alignment_starts loaded res @ starts in
  let starts =
    if config.fsig then
      Heuristics.prologue_starts loaded res ~strictness:Prologue.Loose
        ~every_byte:true
      @ starts
    else starts
  in
  let starts =
    if config.tcall then Heuristics.tcall_starts_angr res @ starts
    else starts
  in
  let starts =
    if config.scan then Heuristics.scan_starts loaded res @ starts
    else starts
  in
  List.sort_uniq compare starts
