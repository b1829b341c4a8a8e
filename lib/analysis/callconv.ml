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
    [First_write_wins] mode.  A block whose summary says none of its
    body's reads fails is one step.

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

(* [init] is the set of initialized registers, as a {!Reg.mask}.  [arg]
   is the first argument at the walk's position, stepped and read by the
   engine's own rule ({!Recursive.first_arg_step},
   {!Recursive.call_returns}).  The tracking is local to a block:
   crossing a block boundary resets it to [Unknown].  A block's body
   steps through its summaries in the block table. *)
type state = { init : int; arg : Recursive.first_arg }

module Lattice = struct
  type nonrec state = state
  type fatal = violation

  let equal a b = a.init = b.init && a.arg = b.arg

  (* [First_write_wins] mode never joins. *)
  let join a _ = a

  let transfer tbl ~addr s st =
    let bad = Insn_table.uses tbl s land lnot (st.init lor Reg.args_mask) in
    if bad <> 0 then
      (* the violation names the first such read in [Semantics.uses]
         order *)
      let reg =
        List.find_opt
          (fun r -> bad land Reg.bit r <> 0)
          (Semantics.uses (Insn_table.insn tbl s))
      in
      Dataflow.Fatal { at = addr; reg }
    else
      Dataflow.Step
        {
          init = Block_table.regs_step tbl s st.init;
          arg = Recursive.first_arg_step tbl s st.arg;
        }

  let body bt k st =
    if Block_table.regs_needed bt k land lnot st.init <> 0 then None
    else
      Some
        {
          init = Block_table.regs_after bt k st.init;
          arg = Block_table.arg_after bt k st.arg;
        }
end

module Solver = Dataflow.Make (Lattice)

let entry_state = { init = Reg.args_mask; arg = Recursive.Unknown }

let policy (res : Recursive.result) =
  {
    Solver.default_policy with
    undecodable = (fun addr -> Some { at = addr; reg = None });
    call_returns =
      (fun t st ->
        Recursive.call_returns ~noreturn:res.noreturn
          ~cond_noreturn:res.cond_noreturn st.arg t);
    edge_state = (fun st -> { st with arg = Recursive.Unknown });
    order = Dataflow.Depth_first;
  }

(** Validate [start] as a function entry, with the violation on failure.
    [res]'s facts tell the walk which calls never return; fuel exhaustion
    means "assume fine". *)
let validate loaded res start =
  if not (Loaded.in_text loaded start) then Error { at = start; reg = None }
  else
    let sol =
      Solver.solve ~max_block_insns:max_insns ~max_blocks ~record:false
        loaded.Loaded.blocks (policy res) ~merge:Dataflow.First_write_wins
        ~entry:start ~init:entry_state ()
    in
    match sol.Solver.fatal with Some v -> Error v | None -> Ok ()

let ledger_fields v =
  [
    ("viol_at", Fetch_obs.Provenance.I v.at);
    ( "viol_reg",
      Fetch_obs.Provenance.S
        (match v.reg with Some r -> Reg.name64 r | None -> "undecodable") );
  ]
