(** One flat basic-block table per binary, over its {!Fetch_x86.Insn_table}.

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

    The table is flat: three ints per block in one array indexed by
    block id.  Which block holds a decoded instruction is kept in the
    decode table itself ({!Fetch_x86.Insn_table.block}), and so are the
    instructions and their lengths.  A block stores its bounds, its
    instruction count and the length of its last one, how it ends,
    whether it holds an indirect call, and its effect on the first
    argument (rdi) up to its ending, or up to the call when it ends in a
    direct call.

    It also carries one walk's scratch state: stamps that clear
    themselves when the next walk begins, and a queue.  Walks must not
    nest. *)

(** How a block ends: its last instruction falls through ([Fall], an
    indirect call included), returns, halts, jumps directly, branches,
    jumps indirectly, or calls directly. *)
type kind = Fall | Ret | Halt | Jump | Cond | Jump_ind | Call

type t

(** An empty table over a decode table.  It takes over the decode
    table's block ids, so a decode table has at most one block table. *)
val create : Fetch_x86.Insn_table.t -> t

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
val first_arg_step : Fetch_x86.Insn_table.t -> int -> first_arg -> first_arg

(** [arg_after t k arg]: the first argument after block [k], or at its
    call when it ends in a direct call, given [arg] at its start. *)
val arg_after : t -> int -> first_arg -> first_arg

(** {2 One walk's scratch state} *)

(** Start a walk: clears every stamp and the queue. *)
val begin_walk : t -> unit

(** The walk's visited stamp of a block. *)
val visited : t -> int -> bool

val visit : t -> int -> unit

(** A second stamp, for the walk's own use (its callees). *)
val called : t -> int -> bool

val call : t -> int -> unit

(** [push t a w] queues the pair [(a, w)]; {!pop} returns [a], and
    {!popped_with} then returns [w]. *)
val push : t -> int -> int -> unit

val pop : t -> int
val popped_with : t -> int
val is_empty : t -> bool
