(** Static stack-height analysis, modelling the analyses shipped by ANGR
    and DYNINST that Table IV compares against the CFI oracle.

    The analysis is a {!Fetch_check.Dataflow} instance: the state is the
    stack height (bytes pushed since function entry), first write wins —
    the arrival-order sensitivity is part of the model — and each tool's
    behavioural quirks are edge-policy settings.  Model fidelity notes:

    - Both tools decode function ranges partly linearly; we reproduce this
      with the solver's [linear_after_jump]: after an unconditional jump
      the walker also continues at the next address with the current
      height.  When that straight-line guess reaches a block before the
      semantically correct path does, the block keeps the wrong height —
      the "side effects of other errors" the paper blames for inaccuracy
      (§V-B).
    - The two styles differ in one thing, jump-table power: [Dyninst]
      resolves all three table shapes and keeps decoding straight past an
      indirect jump it cannot resolve; [Angr] misses the register-load form
      ([mov r, \[table+idx*8\]; jmp r]) and stops there, so those case
      blocks stay unvisited (recall loss).
    - Both assume an unknown (indirect) callee preserves rsp.
    - Heights become unknown at instructions whose stack effect is not
      statically trackable ([leave], [mov rsp, r]).

    A block's body with no such instruction is one step, through its
    summed stack effect in the block table. *)

open Fetch_x86
module Dataflow = Fetch_check.Dataflow

type style = Angr | Dyninst

module Lattice = struct
  type state = int  (** bytes pushed since entry *)

  type fatal = unit  (** never produced *)

  let equal = Int.equal

  (* [First_write_wins] mode never joins. *)
  let join a _ = a

  let transfer tbl ~addr:_ s h =
    match Insn_table.flow tbl s with
    | Semantics.Fall | Semantics.Callf _ -> (
        match Semantics.sp_delta (Insn_table.insn tbl s) with
        | Some d -> Dataflow.Step (h - d)
        | None -> Dataflow.Drop (* untrackable: abandon the path *))
    | _ -> Dataflow.Step h (* successors inherit the jump-site height *)

  let body bt k h =
    if Block_table.sp_unknown bt k then None
    else Some (h - Block_table.sp_delta bt k)
end

module Solver = Dataflow.Make (Lattice)

let policy loaded ~style =
  let table_allowed op preceding =
    match Jump_table.resolve loaded.Loaded.image ~preceding op with
    | Some { Jump_table.targets; _ } -> (
        (* classify the shape: only [Dyninst] resolves the load form *)
        match op with
        | Insn.Mem _ -> Some targets (* direct absolute form *)
        | Insn.Reg _ ->
            (* load form or PIC form; distinguish by scanning the window *)
            let is_pic =
              List.exists
                (fun (_, _, i) ->
                  match i with Insn.Movsxd _ -> true | _ -> false)
                preceding
            in
            if is_pic || style = Dyninst then Some targets else None
        | Insn.Imm _ -> None)
    | None -> None
  in
  (* both tools know FDE boundaries: the linear guess never crosses into
     another FDE-covered function *)
  let linear a = not (Loaded.fde_starting_at loaded a) in
  {
    Solver.default_policy with
    resolve_indirect = (fun ~window op -> table_allowed op window);
    linear_after_jump = linear;
    linear_after_indirect = (fun a -> style = Dyninst && linear a);
    inline_cond_fallthrough = true;
    order = Dataflow.Breadth_first;
  }

(** The height at each address reached from [entry]; first write wins
    (the arrival-order sensitivity is part of the model).  The walks
    stay in text: the engine drops an edge out of the decode table's
    ranges. *)
let analyze loaded ~style entry =
  let sol =
    Solver.solve ~max_block_insns:max_int ~max_blocks:max_int
      loaded.Loaded.blocks (policy loaded ~style)
      ~merge:Dataflow.First_write_wins ~entry ~init:0 ()
  in
  let heights = Dataflow.Itbl.create 64 in
  Solver.iter_states loaded.Loaded.table sol (Dataflow.Itbl.replace heights);
  Dataflow.Itbl.find_opt heights
