(** Calling-convention validation (§IV-E): a candidate function start is
    plausible only if no non-argument register is read before it is written.

    The check is a {!Fetch_check.Dataflow} instance: the state is the set
    of initialized registers (plus a per-block model of the first
    argument, used to decide by {!Recursive}'s rule whether
    conditionally non-returning callees return), the transfer function
    reports a read of an uninitialized non-argument register as a
    {!Fetch_check.Dataflow.Fatal} verdict, and
    the bounded-walk shape of the original check (first in-state wins,
    depth-first, 64 instructions / 12 blocks of fuel) is the engine's
    [First_write_wins] mode.

    Arguments (rdi, rsi, rdx, rcx, r8, r9) and rsp start initialized; a
    [push] is a save, not a use; a call leaves only the callee-saved
    registers and the return value initialized — the System-V
    caller-saved registers (rax, r10, r11 and the argument registers) are
    clobbered by the callee, so a stale value read after the call no
    longer counts as initialized. *)

open Fetch_x86
module Dataflow = Fetch_check.Dataflow

let max_insns = 64
let max_blocks = 12

(** Where and which register violated the rule. *)
type violation = { at : int; reg : Reg.t option }

module RS = Set.Make (Reg)

let initial_set = RS.of_list Reg.args

(* [arg] is the first argument at the walk's position, stepped and read
   by the engine's own rule ({!Recursive.first_arg_step},
   {!Recursive.call_returns}).  The tracking is local to a block:
   crossing a block boundary resets it to [Unknown]. *)
module Lattice = struct
  type state = { init : RS.t; arg : Recursive.first_arg }
  type fatal = violation

  let equal a b = RS.equal a.init b.init && a.arg = b.arg

  (* [First_write_wins] mode never joins. *)
  let join a _ = a

  let transfer ~addr insn st =
    let reads = Semantics.uses insn in
    match
      List.find_opt
        (fun r -> (not (RS.mem r st.init)) && not (Reg.is_arg r))
        reads
    with
    | Some r -> Dataflow.Fatal { at = addr; reg = Some r }
    | None ->
        let init =
          List.fold_left (fun s r -> RS.add r s) st.init (Semantics.defs insn)
        in
        let init =
          match Semantics.flow insn with
          | Semantics.Callf _ ->
              (* the callee clobbers every caller-saved register and
                 defines the return-value register *)
              RS.add Reg.Rax (RS.filter Reg.is_callee_saved init)
          | _ -> init
        in
        Dataflow.Step { init; arg = Recursive.first_arg_step insn st.arg }
end

module Solver = Dataflow.Make (Lattice)

(** Validate [start] as a function entry, with the violation on failure.
    [res]'s facts tell the walk which calls never return; fuel exhaustion
    means "assume fine". *)
let validate loaded (res : Recursive.result) start =
  if not (Loaded.in_text loaded start) then Error { at = start; reg = None }
  else begin
    let prog =
      {
        Dataflow.insn_at = Loaded.insn_at loaded;
        in_text = Loaded.in_text loaded;
      }
    in
    let policy =
      {
        Solver.default_policy with
        undecodable = (fun addr -> Some { at = addr; reg = None });
        call_falls_through =
          (fun ~target (st : Lattice.state) ->
            match target with
            | Some t ->
                Recursive.call_returns ~noreturn:res.noreturn
                  ~cond_noreturn:res.cond_noreturn Fun.id st.arg t
            | None -> true);
        edge_state = (fun st -> { st with Lattice.arg = Recursive.Unknown });
        order = Dataflow.Depth_first;
      }
    in
    let sol =
      Solver.solve ~max_block_insns:max_insns ~max_blocks ~record:false prog
        policy ~merge:Dataflow.First_write_wins ~entry:start
        ~init:{ Lattice.init = initial_set; arg = Recursive.Unknown }
        ()
    in
    match sol.Solver.fatal with Some v -> Error v | None -> Ok ()
  end

let ledger_fields v =
  [
    ("viol_at", Fetch_obs.Provenance.I v.at);
    ( "viol_reg",
      Fetch_obs.Provenance.S
        (match v.reg with Some r -> Reg.name64 r | None -> "undecodable") );
  ]
