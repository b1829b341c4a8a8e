(** Shared forward worklist dataflow engine — see the interface for the
    design.  The walk structure deliberately mirrors the bounded walkers
    it replaced ([lib/analysis/callconv.ml], [lib/analysis/stack_height.ml]):
    a straight-line walk per worklist item, successors batched at block
    end so depth-first order matches the old explicit recursion. *)

open Fetch_x86
module Obs = Fetch_obs.Trace
module Itbl = Hashtbl.Make (Int)

let c_solves = Obs.counter "check.dataflow.solves"
let c_steps = Obs.counter "check.dataflow.steps"
let c_fatals = Obs.counter "check.dataflow.fatals"
let c_exhausted = Obs.counter "check.dataflow.fuel_exhausted"
let h_blocks = Obs.histogram "check.dataflow.blocks_per_solve"

type ('s, 'f) step = Step of 's | Drop | Fatal of 'f

module type LATTICE = sig
  type state
  type fatal

  val equal : state -> state -> bool
  val join : state -> state -> state
  val transfer : Insn_table.t -> addr:int -> int -> state -> (state, fatal) step
end

type merge = First_write_wins | Join_fixpoint
type order = Depth_first | Breadth_first

module Make (L : LATTICE) = struct
  type policy = {
    undecodable : int -> L.fatal option;
    call_falls_through : target:int option -> L.state -> bool;
    resolve_indirect :
      window:(int * int * Insn.t) list -> Insn.operand -> int list option;
    edge_state : L.state -> L.state;
    stop_walk : int -> bool;
    linear_after_jump : int -> bool;
    linear_after_indirect : int -> bool;
    inline_cond_fallthrough : bool;
    order : order;
  }

  let default_policy =
    {
      undecodable = (fun _ -> None);
      call_falls_through = (fun ~target:_ _ -> true);
      resolve_indirect = (fun ~window:_ _ -> None);
      edge_state = Fun.id;
      stop_walk = (fun _ -> false);
      linear_after_jump = (fun _ -> false);
      linear_after_indirect = (fun _ -> false);
      inline_cond_fallthrough = false;
      order = Breadth_first;
    }

  type solution = {
    states : L.state Itbl.t;
    fatal : L.fatal option;
    exhausted : bool;
    blocks_walked : int;
    steps : int;
    joins : int;
  }

  exception Fatal_stop of L.fatal

  let solve ?(max_block_insns = 4096) ?(max_blocks = 4096) ?(record = true) tbl
      policy ~merge ~entry ~init () =
    Obs.incr c_solves;
    let states = Itbl.create (if record then 64 else 1) in
    (* block-entry in-states (Join_fixpoint) / visited marks (First) *)
    let joining = merge = Join_fixpoint in
    let in_states = Itbl.create (if joining then 32 else 1) in
    let visited = Itbl.create (if joining then 1 else 32) in
    (* the worklist: a stack (depth-first) or a FIFO (breadth-first) *)
    let stack = ref [] and fifo = Queue.create () in
    let push succs =
      match policy.order with
      | Depth_first -> stack := succs @ !stack
      | Breadth_first -> List.iter (fun x -> Queue.add x fifo) succs
    in
    let pending () =
      match (policy.order, !stack) with
      | Depth_first, _ :: _ -> true
      | Depth_first, [] -> false
      | Breadth_first, _ -> not (Queue.is_empty fifo)
    in
    let pop () =
      match (policy.order, !stack) with
      | Depth_first, x :: rest ->
          stack := rest;
          x
      | Depth_first, [] | Breadth_first, _ -> Queue.pop fifo
    in
    push [ (entry, init) ];
    let exhausted = ref false in
    let blocks = ref 0 in
    let steps = ref 0 in
    let joins = ref 0 in
    let fatal = ref None in
    if joining then Itbl.replace in_states entry init;
    let record_state addr st =
      if record then
        match merge with
        | First_write_wins ->
            if not (Itbl.mem states addr) then Itbl.replace states addr st
        | Join_fixpoint -> (
            match Itbl.find_opt states addr with
            | None -> Itbl.replace states addr st
            | Some old ->
                let j = L.join old st in
                if not (L.equal j old) then Itbl.replace states addr j)
    in
    (* One straight-line walk from [b]: apply the transfer per instruction,
       let the policy expand control flow, collect the block successors
       inside executable bytes and outside [stop_walk] in emission
       order. *)
    let walk_block b st0 =
      let succs = ref [] in
      let emit st t =
        if Insn_table.in_text tbl t && not (policy.stop_walk t) then
          succs := (t, policy.edge_state st) :: !succs
      in
      (* the reversed (addr, len, insn) run from [b] through [upto], the
         straight-line walk's instructions (it only ever steps to
         [addr + len]); built on demand, each request extending the last *)
      let built = ref (b, []) in
      let window_to upto =
        let rec run a acc =
          if a > upto then begin
            built := (a, acc);
            acc
          end
          else
            let s = Insn_table.find tbl a in
            let len = Insn_table.len tbl s in
            run (a + len) ((a, len, Insn_table.insn tbl s) :: acc)
        in
        let a, acc = !built in
        run a acc
      in
      let rec go addr st fuel =
        if fuel <= 0 then exhausted := true
        else if policy.stop_walk addr then ()
        else
          let s = Insn_table.find tbl addr in
          if s < 0 then (
            match policy.undecodable addr with
            | Some f -> raise (Fatal_stop f)
            | None -> ())
          else begin
            incr steps;
            Obs.incr c_steps;
            record_state addr st;
            match L.transfer tbl ~addr s st with
            | Fatal f -> raise (Fatal_stop f)
            | Drop -> ()
            | Step st' -> (
                let len = Insn_table.len tbl s in
                match Insn_table.flow tbl s with
                | Semantics.Fall -> go (addr + len) st' (fuel - 1)
                | Semantics.Ret | Semantics.Halt -> ()
                | Semantics.Jump (Semantics.Direct t) ->
                    emit st' t;
                    if policy.linear_after_jump (addr + len) then
                      go (addr + len) st' (fuel - 1)
                | Semantics.Cond t ->
                    emit st' t;
                    if policy.inline_cond_fallthrough then
                      go (addr + len) st' (fuel - 1)
                    else emit st' (addr + len)
                | Semantics.Jump (Semantics.Indirect op) -> (
                    match policy.resolve_indirect ~window:(window_to addr) op with
                    | Some ts -> List.iter (emit st') ts
                    | None ->
                        if policy.linear_after_indirect (addr + len) then
                          go (addr + len) st' (fuel - 1))
                | Semantics.Callf dest ->
                    let target =
                      match dest with
                      | Semantics.Direct t -> Some t
                      | Semantics.Indirect _ -> None
                    in
                    if policy.call_falls_through ~target st then
                      go (addr + len) st' (fuel - 1))
          end
      in
      go b st0 max_block_insns;
      List.rev !succs
    in
    (* Join-mode admission: merge into the block's in-state; keep only
       successors whose in-state actually changed. *)
    let admit succs =
      match merge with
      | First_write_wins -> succs
      | Join_fixpoint ->
          List.filter_map
            (fun (t, s) ->
              match Itbl.find_opt in_states t with
              | None ->
                  Itbl.replace in_states t s;
                  Some (t, s)
              | Some old ->
                  let j = L.join old s in
                  if L.equal j old then None
                  else begin
                    incr joins;
                    Itbl.replace in_states t j;
                    Some (t, j)
                  end)
            succs
    in
    (try
       let running = ref true in
       while !running do
         if not (pending ()) then running := false
         else
           let b, st = pop () in
           if !blocks >= max_blocks then begin
             exhausted := true;
             running := false
           end
           else if (not joining) && Itbl.mem visited b then
             () (* first write wins: a visited block is not walked again *)
           else begin
             if not joining then Itbl.replace visited b ();
             incr blocks;
             push (admit (walk_block b st))
           end
       done
     with Fatal_stop f ->
       Obs.incr c_fatals;
       fatal := Some f);
    if !exhausted then Obs.incr c_exhausted;
    if Obs.enabled () then Obs.observe h_blocks !blocks;
    {
      states;
      fatal = !fatal;
      exhausted = !exhausted;
      blocks_walked = !blocks;
      steps = !steps;
      joins = !joins;
    }
end
