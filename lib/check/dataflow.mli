(** Shared forward worklist dataflow engine over recovered control flow.

    Every static check in the paper — §IV-E calling-convention validation,
    the ANGR/DYNINST-style stack-height models of Table IV, the sound
    height analysis the linter compares against the CFI oracle — is a
    bounded traversal of the same shape: a worklist of (block start,
    in-state) pairs, a straight-line walk applying a per-instruction
    transfer function, and a policy deciding which control-flow edges are
    followed.  This module is that traversal, written once: analyses are
    {!LATTICE} instances and the tool-specific knobs (linear fallthrough,
    jump-table power, call fall-through) are {!policy} fields.
    The policy holds only what its three callers set: [Callconv]
    (undecodable bytes, call fall-through, the first-argument reset at
    block edges, depth-first order), [Stack_height] (jump tables, the
    two linear continuations, inline conditional fallthrough) and the
    linter's [height-mismatch] rule (call fall-through, jump tables,
    staying inside the function).

    The program is a {!Fetch_x86.Block_table}, the binary's cached basic
    blocks over its decode table.  A straight-line walk steps whole
    blocks: the body of a block (every instruction of one that falls
    through, all but the last of any other) is one step through the
    lattice's {!LATTICE.body} summary, and the last instruction is
    stepped on its own, so the policy sees every control transfer.  A
    body is stepped one instruction at a time instead when the summary
    answers [None] (some instruction of it would fail or drop the path),
    when the walk's fuel runs out inside it, or when the policy does not
    let the walk through all of it ([may_walk]).  So verdicts, fuel and
    the counters ([check.dataflow.steps] counts instructions either way)
    are those of a walk that steps every instruction; the test suite
    keeps that walk as a reference model.

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
    instrumented runs can attribute work.

    Per-solve state (visited marks, in-states, recorded states, the
    worklist) lives in arrays kept per domain and per lattice, so a solve
    allocates no table.  They are indexed by the solve's numbering of the
    blocks it touches, which the block table keeps under an epoch of its
    own ({!Fetch_x86.Block_table.begin_solve}), so they are as long as
    the most blocks one solve touched.  Solves on one block table, or of
    one lattice, must not nest ([Invalid_argument]).  A solve may split
    blocks of the table ({!Fetch_x86.Block_table.start}), as every walk
    does. *)

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

  val body : Block_table.t -> int -> state -> state option
  (** [body bt k st]: [Some] the state after block [k]'s body
      ({!Fetch_x86.Block_table.body_insns} instructions from its start)
      from [st], when [transfer] steps each of them; [None] when one of
      them would drop the path or fail.  [None] is always allowed: the
      engine then steps the body one instruction at a time. *)
end

(** Int-keyed hash tables. *)
module Itbl : Hashtbl.S with type key = int

type merge = First_write_wins | Join_fixpoint
type order = Depth_first | Breadth_first

(** Edge policy: which control-flow edges exist and how they are
    followed.  These knobs are exactly the behavioural differences
    between the tools the repo models (§V-B). *)
type ('s, 'f) policy = {
  undecodable : int -> 'f option;
      (** verdict for reaching an undecodable byte; [None] ends the path
          silently *)
  call_returns : int -> 's -> bool;
      (** does execution continue after a direct call to this target?
          Receives the pre-transfer state (so e.g. argument tracking for
          conditionally non-returning callees sees the call-site
          values).  An indirect call always continues, as in every walk
          of the repo *)
  resolve_indirect :
    window:(int * int * Insn.t) list -> Insn.operand -> int list option;
      (** jump-table resolution; [window] is the reversed
          (addr, len, insn) stream walked so far, current jump at the
          head.  [None] = unresolved *)
  edge_state : 's -> 's;
      (** adjust a state crossing a block boundary (the straight-line
          walk never applies this).  Lets analyses model components that
          reset per block — e.g. §IV-E's first-argument tracking, which
          only trusts values established in the current block *)
  may_walk : int -> int -> bool;
      (** [may_walk lo hi]: may the walk step every address in
          [\[lo, hi)]?  An address [a] it may not ([may_walk a (a + 1)]
          is [false]) is never walked: the straight-line walk ends
          before it and no edge leads to it.  Confines an analysis to a
          region across jumps, jump tables and fallthrough alike (e.g. a
          trailing call falling out of a function's last block into its
          neighbour).  A wider range may answer [false] when unsure; the
          engine then asks per instruction *)
  linear_after_jump : int -> bool;
      (** after an unconditional direct jump, also continue decoding at
          the next address (given) — the linear-decode defect of §V-B *)
  linear_after_indirect : int -> bool;
      (** continue decoding at the next address (given) past an
          unresolved indirect jump *)
  inline_cond_fallthrough : bool;
      (** walk straight through conditional jumps (enqueueing only the
          taken target) instead of ending the block with two successors *)
  order : order;  (** worklist discipline *)
}

(** Every edge followed, every call returns, breadth-first. *)
val default_policy : ('s, 'f) policy

module Make (L : LATTICE) : sig
  type nonrec policy = (L.state, L.fatal) policy

  val default_policy : policy

  type solution = {
    entries : (int * int * L.state) list;
        (** the recorded blocks, [(lo, hi, st)] each (none when
            [record] is [false]): a walk reached every instruction of
            [\[lo, hi)], the first in state [st] (joined over the walks
            in {!Join_fixpoint} mode, the first walk's otherwise); the
            state at each later one is [st] stepped by [transfer].  An
            instruction lies in at most one entry *)
    fatal : L.fatal option;  (** set iff the solve was aborted *)
    exhausted : bool;  (** some fuel limit was hit *)
    blocks_walked : int;
    steps : int;  (** transfer applications, a body's counted per instruction *)
    joins : int;  (** in-state updates in {!Join_fixpoint} mode *)
  }

  val solve :
    ?max_block_insns:int ->
    ?max_blocks:int ->
    ?record:bool ->
    Block_table.t ->
    policy ->
    merge:merge ->
    entry:int ->
    init:L.state ->
    unit ->
    solution
  (** [solve bt policy ~merge ~entry ~init ()] runs the analysis over
      the blocks of [bt] to quiescence (or fuel exhaustion).  A
      successor block outside the decode table's ranges or where the
      policy may not walk is dropped.  Defaults: [max_block_insns] and
      [max_blocks] 4096, [record] true. *)

  val iter_states : Insn_table.t -> solution -> (int -> L.state -> unit) -> unit
  (** [iter_states tbl sol f] calls [f addr st] for every recorded
      instruction, with its pre-state, expanding {!solution.entries} in
      order.  In {!Join_fixpoint} mode the state at an instruction after
      a block's first is the joined entry state stepped on, which is the
      join of the walks' own states there when [transfer] distributes
      over [join] (as the flat height lattice's does). *)
end
