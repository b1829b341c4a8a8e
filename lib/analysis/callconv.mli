(** Calling-convention validation (§IV-E): a candidate function start is
    plausible only if no non-argument register is read before it is
    written.

    This is the one calling-convention check: §IV-E's error (iv) in
    [Xref], the Fig. 6b broken-FDE check in [Pipeline], Algorithm 1's
    [MeetCallConv] in [Tailcall] and the linter's [start-callconv] rule
    all call {!validate}, and a rejection's evidence comes from that same
    walk.

    The check walks the CFG from the candidate start with bounded depth.
    Arguments (rdi, rsi, rdx, rcx, r8, r9) and rsp start initialized; a
    [push] is a save, not a use; a call defines rax.  Any explored path
    that reads an uninitialized non-argument register invalidates the
    candidate; exhausting the exploration budget validates it
    (conservative towards acceptance, as real functions must pass). *)

(** Where and which register violated the rule ([reg = None] means an
    undecodable instruction, or a start outside text, was reached). *)
type violation = { at : int; reg : Fetch_x86.Reg.t option }

(** [validate loaded res start] validates a candidate entry.  The walk
    stops after a call that does not return under [res]'s noreturn facts,
    by {!Recursive.call_returns}, the rule the engine itself follows (an
    [error]-style callee returns only when the first argument is
    provably zero in the calling block), so it cannot run off a
    function's end into data. *)
val validate : Loaded.t -> Recursive.result -> int -> (unit, violation) result

(** {2 The solve behind {!validate}}

    What {!validate} hands the dataflow engine, so that a reference
    engine can run the same problem. *)

(** The state: the initialized registers ({!Fetch_x86.Reg.mask}) and
    the first argument at the walk's position. *)
type state = { init : int; arg : Recursive.first_arg }

module Lattice :
  Fetch_check.Dataflow.LATTICE with type state = state and type fatal = violation

(** The state at a candidate start: the arguments initialized. *)
val entry_state : state

(** The edge policy under [res]'s noreturn facts. *)
val policy : Recursive.result -> (state, violation) Fetch_check.Dataflow.policy

(** Fuel: instructions per walk, walks per solve. *)
val max_insns : int

val max_blocks : int

(** The violation as decision-ledger operands: [viol_at] and [viol_reg]
    (the register's 64-bit name, or ["undecodable"]). *)
val ledger_fields : violation -> (string * Fetch_obs.Provenance.value) list
