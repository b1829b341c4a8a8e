(** Flat instruction-boundary table over the executable sections.

    The instruction-span structure of recursive disassembly: every
    committed instruction [\[lo, hi)] is recorded byte-wise in one byte
    per text byte — [0] for a free byte, [0x80 lor len] at an
    instruction start, [k] at the [k]-th byte after a start — so
    {!find} is O(1), the "is any byte already covered?" test of {!add}
    reads at most [len] bytes, and {!cardinal} is a counter.

    The bytes live in 256-byte pages; untouched pages share one zero
    page, which {!next_from} and {!iter} skip whole.  The table only
    grows: an instruction, once recorded, stays. *)

type t

(** [create ranges] is an empty table over the address ranges
    [\[lo, hi)] (the executable sections); overlapping or adjacent
    ranges are merged. *)
val create : (int * int) list -> t

(** Longest instruction {!add} accepts. *)
val max_len : int

(** [add t ~lo ~hi] records the instruction [\[lo, hi)] unless one of its
    bytes is already covered (first writer wins), and says whether it
    did.  Raises [Invalid_argument] when the length is outside
    [1 .. max_len] or the instruction is not inside one range of the
    table. *)
val add : t -> lo:int -> hi:int -> bool

(** [find t addr] is the [(lo, hi)] of the instruction covering [addr]. *)
val find : t -> int -> (int * int) option

val mem : t -> int -> bool

(** First instruction starting at or after the address. *)
val next_from : t -> int -> (int * int) option

(** Number of recorded instructions. *)
val cardinal : t -> int

(** Every instruction, ascending. *)
val iter : t -> (lo:int -> hi:int -> unit) -> unit

(** Every instruction, ascending. *)
val to_list : t -> (int * int) list
