(** Shared forward worklist dataflow engine — see the interface for the
    design.  The walk structure deliberately mirrors the bounded walkers
    it replaced ([lib/analysis/callconv.ml], [lib/analysis/stack_height.ml]):
    a straight-line decode per worklist item, successors batched at block
    end so depth-first order matches the old explicit recursion. *)

open Fetch_x86
module Obs = Fetch_obs.Trace

let c_solves = Obs.counter "check.dataflow.solves"
let c_steps = Obs.counter "check.dataflow.steps"
let c_fatals = Obs.counter "check.dataflow.fatals"
let c_exhausted = Obs.counter "check.dataflow.fuel_exhausted"
let h_blocks = Obs.histogram "check.dataflow.blocks_per_solve"

type program = {
  insn_at : int -> (Insn.t * int) option;
  in_text : int -> bool;
}

type ('s, 'f) step = Step of 's | Drop | Fatal of 'f

module type LATTICE = sig
  type state
  type fatal

  val equal : state -> state -> bool
  val join : state -> state -> state
  val transfer : addr:int -> Insn.t -> state -> (state, fatal) step
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
    states : (int, L.state) Hashtbl.t;
    fatal : L.fatal option;
    exhausted : bool;
    blocks_walked : int;
    steps : int;
    joins : int;
  }

  exception Fatal_stop of L.fatal

  let solve ?(max_block_insns = 4096) ?(max_blocks = 4096) ?(record = true) prog
      policy ~merge ~entry ~init () =
    Obs.incr c_solves;
    let states = Hashtbl.create (if record then 64 else 1) in
    (* block-entry in-states (Join_fixpoint) / visited marks (First) *)
    let in_states : (int, L.state) Hashtbl.t = Hashtbl.create 32 in
    let visited : (int, unit) Hashtbl.t = Hashtbl.create 32 in
    let wl = ref [ (entry, init) ] in
    let exhausted = ref false in
    let blocks = ref 0 in
    let steps = ref 0 in
    let joins = ref 0 in
    let fatal = ref None in
    if merge = Join_fixpoint then Hashtbl.replace in_states entry init;
    let record_state addr st =
      if record then
        match merge with
        | First_write_wins ->
            if not (Hashtbl.mem states addr) then Hashtbl.replace states addr st
        | Join_fixpoint -> (
            match Hashtbl.find_opt states addr with
            | None -> Hashtbl.replace states addr st
            | Some old ->
                let j = L.join old st in
                if not (L.equal j old) then Hashtbl.replace states addr j)
    in
    (* One straight-line walk from [b]: apply the transfer per instruction,
       let the policy expand control flow, collect the block successors
       inside executable bytes and outside [stop_walk] in emission
       order. *)
    let walk_block b st0 =
      let succs = ref [] in
      let emit st t =
        if prog.in_text t && not (policy.stop_walk t) then
          succs := (t, policy.edge_state st) :: !succs
      in
      let rec go addr st window fuel =
        if fuel <= 0 then exhausted := true
        else if policy.stop_walk addr then ()
        else
          match prog.insn_at addr with
          | None -> (
              match policy.undecodable addr with
              | Some f -> raise (Fatal_stop f)
              | None -> ())
          | Some (insn, len) -> (
              incr steps;
              Obs.incr c_steps;
              record_state addr st;
              match L.transfer ~addr insn st with
              | Fatal f -> raise (Fatal_stop f)
              | Drop -> ()
              | Step st' -> (
                  let window = (addr, len, insn) :: window in
                  match Semantics.flow insn with
                  | Semantics.Fall -> go (addr + len) st' window (fuel - 1)
                  | Semantics.Ret | Semantics.Halt -> ()
                  | Semantics.Jump (Semantics.Direct t) ->
                      emit st' t;
                      if policy.linear_after_jump (addr + len) then
                        go (addr + len) st' window (fuel - 1)
                  | Semantics.Cond t ->
                      emit st' t;
                      if policy.inline_cond_fallthrough then
                        go (addr + len) st' window (fuel - 1)
                      else emit st' (addr + len)
                  | Semantics.Jump (Semantics.Indirect op) -> (
                      match policy.resolve_indirect ~window op with
                      | Some ts -> List.iter (emit st') ts
                      | None ->
                          if policy.linear_after_indirect (addr + len) then
                            go (addr + len) st' window (fuel - 1))
                  | Semantics.Callf dest ->
                      let target =
                        match dest with
                        | Semantics.Direct t -> Some t
                        | Semantics.Indirect _ -> None
                      in
                      if policy.call_falls_through ~target st then
                        go (addr + len) st' window (fuel - 1)))
      in
      go b st0 [] max_block_insns;
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
              match Hashtbl.find_opt in_states t with
              | None ->
                  Hashtbl.replace in_states t s;
                  Some (t, s)
              | Some old ->
                  let j = L.join old s in
                  if L.equal j old then None
                  else begin
                    incr joins;
                    Hashtbl.replace in_states t j;
                    Some (t, j)
                  end)
            succs
    in
    (try
       let running = ref true in
       while !running do
         match !wl with
         | [] -> running := false
         | (b, st) :: rest ->
             wl := rest;
             if !blocks >= max_blocks then begin
               exhausted := true;
               running := false
             end
             else begin
               let admitted =
                 match merge with
                 | First_write_wins ->
                     if Hashtbl.mem visited b then None
                     else begin
                       Hashtbl.replace visited b ();
                       Some st
                     end
                 | Join_fixpoint -> Some st
               in
               match admitted with
               | None -> ()
               | Some st ->
                   incr blocks;
                   let succs = admit (walk_block b st) in
                   (match policy.order with
                   | Depth_first -> wl := succs @ !wl
                   | Breadth_first -> wl := !wl @ succs)
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
