(** One flat decode table per binary: superset disassembly as a memo.

    The table covers a set of address ranges (a binary's executable
    sections), indexed by {!Fetch_util.Offset_map} as the committed-code
    byte map is.  Each byte offset maps to a dense slot id, kept as an
    int32 in a [Bytes] buffer the GC does not scan.  The facts every
    walker reads live in arrays indexed by slot: the instruction, its
    length, and its register use and def sets as masks ({!Reg.mask}).

    An offset is decoded at most once, on its first {!find}, and all of
    its stored facts are computed then; an offset with no instruction is
    remembered as such.  Each walker decides what to follow, so
    overlapping decodes from different offsets coexist.  Memory is
    bounded by the ranges' size: four bytes per offset, plus at most
    one slot (two array words and the decoded instruction) per
    offset. *)

type t

(** [create ~decode ranges] is an empty table over [ranges], a list of
    [(lo, hi)] address ranges ([hi] exclusive; overlapping or adjacent
    ones are merged).  [decode addr] is called
    at most once per address inside the ranges, and never outside
    them. *)
val create : decode:(int -> (Insn.t * int) option) -> (int * int) list -> t

(** Is the address inside one of the table's ranges? *)
val in_text : t -> int -> bool

(** The slot of the instruction at an address, decoding it on first
    use; [-1] when the address is outside the ranges or holds no
    instruction. *)
val find : t -> int -> int

(** {2 The facts of a slot}

    Each takes a slot id returned by {!find}. *)

val insn : t -> int -> Insn.t
val len : t -> int -> int

(** {!Semantics.flow} of the instruction, computed on each call: the
    table does not keep it. *)
val flow : t -> int -> Semantics.flow

(** {!Semantics.uses_mask}. *)
val uses : t -> int -> int

(** {!Semantics.defs}. *)
val defs : t -> int -> int

(** {2 The block of a slot}

    Each slot has room for one basic-block id, [-1] until set.  The
    block table built over this decode table (one per table) keeps
    there which of its blocks holds the instruction. *)

val block : t -> int -> int

(** [set_block t s k], [0 <= k < 2{^26}]. *)
val set_block : t -> int -> int -> unit

(** How many distinct addresses were decoded so far, undecodable ones
    included. *)
val decoded : t -> int
