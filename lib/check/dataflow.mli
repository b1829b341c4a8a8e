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

    Two merge disciplines are supported, because the repo needs both:

    - {!First_write_wins} — the first in-state to reach a block is kept and
      later arrivals are discarded.  This is what the paper's bounded
      walkers (and the real tools they model) actually do; the
      arrival-order sensitivity is part of the model.
    - {!Join_fixpoint} — classical dataflow: in-states are joined at block
      entries, changed blocks are re-enqueued, and {!LATTICE.widen} is
      applied after 8 updates of the same block so solving
      terminates on lattices of unbounded height.

    Fuel accounting ([max_block_insns], [max_blocks]) bounds every solve;
    exhaustion is reported, never raised.  Solves register obs counters
    ([check.dataflow.*]) so instrumented runs can attribute work. *)

open Fetch_x86

(** The program under analysis, as closures so the engine depends on no
    particular loader. *)
type program = {
  insn_at : int -> (Insn.t * int) option;
      (** decoded instruction and length at a virtual address *)
  in_text : int -> bool;  (** is the address inside executable bytes? *)
}

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

  val widen : old:state -> state -> state
  (** applied to a block's joined in-state after 8 changes *)

  val transfer : addr:int -> len:int -> Insn.t -> state -> (state, fatal) step
end

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
    call_falls_through : site:int -> target:int option -> L.state -> bool;
        (** does execution continue after this call?  Receives the
            pre-transfer state (so e.g. argument tracking for
            conditionally non-returning callees sees the call-site
            values); [target] is [None] for indirect calls *)
    resolve_indirect :
      site:int ->
      window:(int * int * Insn.t) list ->
      Insn.operand ->
      int list option;
        (** jump-table resolution; [window] is the reversed
            (addr, len, insn) stream walked so far, current jump at the
            head.  [None] = unresolved *)
    follow_direct : site:int -> target:int -> bool;
        (** follow this direct/conditional jump edge?  [false] treats it
            as leaving the analysed region *)
    edge_state : src:int -> dst:int -> L.state -> L.state;
        (** adjust a state crossing a block boundary (the straight-line
            walk never applies this).  Lets analyses model components
            that reset per block — e.g. §IV-E's first-argument tracking,
            which only trusts values established in the current block *)
    stop_outside_text : bool;
        (** end walks that run outside executable bytes (instead of
            consulting [undecodable]) *)
    stop_walk : int -> bool;
        (** end the straight-line walk before this address — confines an
            analysis to a region even across fallthrough edges (e.g. a
            trailing call falling out of a function's last block into its
            neighbour) *)
    linear_fallthrough : bool;
        (** after an unconditional jump, also continue decoding at the
            next address — the linear-decode defect of §V-B *)
    linear_after_indirect : bool;
        (** continue decoding straight past an unresolved indirect jump *)
    stop_linear_at : int -> bool;
        (** stop a linear continuation here (e.g. an FDE boundary) *)
    inline_cond_fallthrough : bool;
        (** walk straight through conditional jumps (enqueueing only the
            taken target) instead of ending the block with two successors *)
    order : order;  (** worklist discipline *)
  }

  val default_policy : policy

  type solution = {
    states : (int, L.state) Hashtbl.t;
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
    program ->
    policy ->
    merge:merge ->
    entry:int ->
    init:L.state ->
    unit ->
    solution
  (** [solve prog policy ~merge ~entry ~init ()] runs the analysis to
      quiescence (or fuel exhaustion).  A successor block outside
      executable bytes is dropped.  Defaults: [max_block_insns] and
      [max_blocks] 4096, [record] true. *)
end
