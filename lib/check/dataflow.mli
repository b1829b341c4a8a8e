(** Shared forward worklist dataflow engine over recovered control flow.

    Every static check in the paper — §IV-E calling-convention validation,
    the ANGR/DYNINST-style stack-height models of Table IV, the sound
    height analysis the linter compares against the CFI oracle — is a
    bounded traversal of the same shape: a worklist of (block start,
    in-state) pairs, a straight-line walk applying a per-instruction
    transfer function, and a policy deciding which control-flow edges are
    followed.  This module is that traversal, written once: analyses are
    {!LATTICE} instances and the tool-specific knobs (linear fallthrough,
    jump-table power, call fall-through) are {!Make.policy} parameters.
    The policy holds only what its three callers set: [Callconv]
    (undecodable bytes, call fall-through, the first-argument reset at
    block edges, depth-first order), [Stack_height] (jump tables, the
    two linear continuations, inline conditional fallthrough, staying in
    text) and the linter's [height-mismatch] rule (call fall-through,
    jump tables, staying inside the function).

    The program is a {!Fetch_x86.Insn_table}: the walk reads each
    instruction's length and flow from its slot, and a transfer
    function reads whatever other fact it needs there.

    Two merge disciplines are supported, because the repo needs both:

    - {!First_write_wins} — the first in-state to reach a block is kept and
      later arrivals are discarded.  This is what the paper's bounded
      walkers (and the real tools they model) actually do; the
      arrival-order sensitivity is part of the model.
    - {!Join_fixpoint} — classical dataflow: in-states are joined at block
      entries and changed blocks are re-enqueued.

    Fuel ([max_block_insns] per walk, [max_blocks] per solve) is the
    termination bound: every solve stops when it runs out, so a join
    lattice needs no widening (the one in use, the linter's flat height
    lattice, has two levels anyway).  Exhaustion is reported, never
    raised.  Solves register obs counters ([check.dataflow.*]) so
    instrumented runs can attribute work. *)

open Fetch_x86

(** Outcome of one transfer: continue with a new state, abandon the path
    (e.g. the tracked quantity became unknowable), or abort the whole
    solve with a verdict (e.g. a calling-convention violation). *)
type ('s, 'f) step = Step of 's | Drop | Fatal of 'f

module type LATTICE = sig
  type state

  type fatal
  (** analysis-aborting verdict carried out of {!Make.solve} *)

  val equal : state -> state -> bool
  val join : state -> state -> state
  val transfer : Insn_table.t -> addr:int -> int -> state -> (state, fatal) step
  (** [transfer tbl ~addr s st]: the instruction at [addr], in slot [s]
      of [tbl] *)
end

(** Int-keyed hash tables, the engine's per-address maps. *)
module Itbl : Hashtbl.S with type key = int

type merge = First_write_wins | Join_fixpoint
type order = Depth_first | Breadth_first

module Make (L : LATTICE) : sig
  (** Edge policy: which control-flow edges exist and how they are
      followed.  These knobs are exactly the behavioural differences
      between the tools the repo models (§V-B). *)
  type policy = {
    undecodable : int -> L.fatal option;
        (** verdict for reaching an undecodable byte; [None] ends the
            path silently *)
    call_falls_through : target:int option -> L.state -> bool;
        (** does execution continue after this call?  Receives the
            pre-transfer state (so e.g. argument tracking for
            conditionally non-returning callees sees the call-site
            values); [target] is [None] for indirect calls *)
    resolve_indirect :
      window:(int * int * Insn.t) list -> Insn.operand -> int list option;
        (** jump-table resolution; [window] is the reversed
            (addr, len, insn) stream walked so far, current jump at the
            head.  [None] = unresolved *)
    edge_state : L.state -> L.state;
        (** adjust a state crossing a block boundary (the straight-line
            walk never applies this).  Lets analyses model components
            that reset per block — e.g. §IV-E's first-argument tracking,
            which only trusts values established in the current block *)
    stop_walk : int -> bool;
        (** never walk this address: the straight-line walk ends before
            it and no edge leads to it.  Confines an analysis to a region
            across jumps, jump tables and fallthrough alike (e.g. a
            trailing call falling out of a function's last block into
            its neighbour) *)
    linear_after_jump : int -> bool;
        (** after an unconditional direct jump, also continue decoding
            at the next address (given) — the linear-decode defect of
            §V-B *)
    linear_after_indirect : int -> bool;
        (** continue decoding at the next address (given) past an
            unresolved indirect jump *)
    inline_cond_fallthrough : bool;
        (** walk straight through conditional jumps (enqueueing only the
            taken target) instead of ending the block with two successors *)
    order : order;  (** worklist discipline *)
  }

  val default_policy : policy

  type solution = {
    states : L.state Itbl.t;
        (** pre-state at every visited instruction address (empty when
            [record] is [false]) *)
    fatal : L.fatal option;  (** set iff the solve was aborted *)
    exhausted : bool;  (** some fuel limit was hit *)
    blocks_walked : int;
    steps : int;  (** transfer applications *)
    joins : int;  (** in-state updates in {!Join_fixpoint} mode *)
  }

  val solve :
    ?max_block_insns:int ->
    ?max_blocks:int ->
    ?record:bool ->
    Insn_table.t ->
    policy ->
    merge:merge ->
    entry:int ->
    init:L.state ->
    unit ->
    solution
  (** [solve tbl policy ~merge ~entry ~init ()] runs the analysis over
      the program whose instructions [tbl] decodes, to quiescence (or
      fuel exhaustion).  A successor block outside [tbl]'s ranges or at
      a [stop_walk] address is dropped.
      Defaults: [max_block_insns] and [max_blocks] 4096, [record]
      true. *)
end
