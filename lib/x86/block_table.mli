(** One flat basic-block table per binary, over its {!Insn_table}.

    A block is a run of instructions decoded back to back.  It ends at a
    control transfer, at a direct call, before an address with no
    instruction, or before an instruction that already lies in a block.
    An indirect call does not end a block.  Every decoded instruction
    lies in at most one block.

    Blocks are built lazily: {!start} builds the block at an address on
    first use, and splits the block holding that address in two when
    the address is one of its instructions other than the first.  So a
    block that ran into another one falls into a block start once a
    walk goes on there.  A start, once made, stays one, so the blocks
    only ever get finer.

    The table is flat: five ints per block in one array indexed by
    block id.  Which block holds a decoded instruction is kept in the
    decode table itself ({!Insn_table.block}), and so are the
    instructions and their lengths.  A block stores its bounds, its
    instruction count and the length of its last one, how it ends,
    whether it holds an indirect call, and its effect on the first
    argument (rdi) up to its ending, or up to the call when it ends in a
    direct call.  One more int holds the summary of its body that the
    dataflow solves step ({!regs_after}, {!sp_delta}), computed on first
    use and dropped when the block splits, and one more a dataflow
    solve's index of the block.

    It also carries one walk's scratch state: stamps that clear
    themselves when the next walk begins, and a queue.  Walks must not
    nest.  A dataflow solve numbers the blocks it touches, under an
    epoch of its own; solves must not nest either. *)

(** How a block ends: its last instruction falls through ([Fall], an
    indirect call included), returns, halts, jumps directly, branches,
    jumps indirectly, or calls directly. *)
type kind = Fall | Ret | Halt | Jump | Cond | Jump_ind | Call

type t

(** An empty table over a decode table.  It takes over the decode
    table's block ids, so a decode table has at most one block table. *)
val create : Insn_table.t -> t

(** The decode table under it. *)
val table : t -> Insn_table.t

(** [start t addr] is the block starting at [addr], built or split off
    now if needed; [-1] when no instruction decodes at [addr]. *)
val start : t -> int -> int

(** Number of blocks built so far. *)
val count : t -> int

(** {2 The facts of a block}

    Each takes a block id from {!start}. *)

val lo : t -> int -> int

(** Address of the last instruction. *)
val last : t -> int -> int

(** One past the last instruction: where a [Fall], a [Cond] or a
    returning [Call] goes on. *)
val hi : t -> int -> int

(** The jump, branch or callee target of a [Jump], [Cond] or [Call],
    read from its last instruction. *)
val target : t -> int -> int

(** The same target, read from the instruction in a slot of the decode
    table. *)
val slot_target : Insn_table.t -> int -> int

val kind : t -> int -> kind

(** Number of instructions. *)
val insns : t -> int -> int

val has_indirect_call : t -> int -> bool

(** {2 The first argument}

    The first argument (rdi) at a call site, as far as §IV-C's backward
    slice can prove it. *)
type first_arg = Zero | Nonzero | Unknown

(** [first_arg_step tbl s arg] is the first argument after the
    instruction in slot [s]: [mov edi, 0] and [xor edi, edi] make it
    [Zero], a move of any other immediate makes it [Nonzero], and any
    other write to rdi or any call makes it [Unknown]. *)
val first_arg_step : Insn_table.t -> int -> first_arg -> first_arg

(** [arg_after t k arg]: the first argument after block [k]'s body
    (below), given [arg] at its start: after the block, or at its last
    instruction when that does not fall through. *)
val arg_after : t -> int -> first_arg -> first_arg

(** {2 Summaries of the body}

    A block's body is the stretch {!arg_after} covers: every instruction
    of a [Fall] block, all but the last of any other.  Each body
    instruction falls through to the next, an indirect call included.
    The summaries below fold the body's instructions in O(1). *)

(** Number of body instructions: {!insns}, or one less. *)
val body_insns : t -> int -> int

(** [regs_step tbl s init]: the initialized registers (a {!Reg.mask})
    after the instruction in slot [s], given [init] before it (§IV-E):
    its defs join them, and a call leaves only the callee-saved
    registers and rax. *)
val regs_step : Insn_table.t -> int -> int -> int

(** [regs_after t k init]: {!regs_step} folded over the body. *)
val regs_after : t -> int -> int -> int

(** The registers the body reads, arguments aside, before it writes
    them, plus a bit outside every register mask when it reads a
    register that a call in it clobbered and nothing wrote since.  No
    body instruction reads an uninitialized non-argument register from
    [init] iff [regs_needed t k land lnot init = 0]. *)
val regs_needed : t -> int -> int

(** The body's total {!Semantics.sp_delta} (rsp moves by it), counting
    only the known ones. *)
val sp_delta : t -> int -> int

(** Does some body instruction have no {!Semantics.sp_delta}? *)
val sp_unknown : t -> int -> bool

(** {2 One walk's scratch state} *)

(** Start a walk: clears every stamp and the queue. *)
val begin_walk : t -> unit

(** The walk's visited stamp of a block. *)
val visited : t -> int -> bool

val visit : t -> int -> unit

(** A second stamp, for the walk's own use (its callees). *)
val called : t -> int -> bool

val call : t -> int -> unit

(** {2 One dataflow solve's numbering}

    A solve gives each block it touches an index of its own, [0] up, so
    that it can keep its per-block state in arrays as short as the
    blocks it touches. *)

(** Start a solve: no block has an index.  Raises [Invalid_argument]
    while another solve is under way ({!end_solve} not called). *)
val begin_solve : t -> unit

val end_solve : t -> unit

(** The block's index in the solve under way, [-1] if none. *)
val solve_index : t -> int -> int

(** [set_solve_index t k i], [0 <= i < 2{^26}]. *)
val set_solve_index : t -> int -> int -> unit

(** [push t a w] queues the pair [(a, w)]; {!pop} returns [a], and
    {!popped_with} then returns [w]. *)
val push : t -> int -> int -> unit

val pop : t -> int
val popped_with : t -> int
val is_empty : t -> bool
