(** The committed-code byte map: one byte per text byte.

    The instruction-span structure of recursive disassembly, indexed by
    {!Offset_map} over the executable sections.  Each byte holds a start
    bit ([0x80]), a code bit ([0x40]) and six bits of length or
    back-distance:

    - the code bit is set on every byte of every instruction handed to
      {!add}, recorded or not, so {!in_code} is the union of the
      committed runs — §IV-E's error (iii) asks it;
    - a recorded instruction [\[lo, hi)] has the start bit and its
      length at [lo] and its distance from [lo] at [lo + k]; a byte no
      recorded instruction covers has all six bits zero.

    So {!find} is O(1), the "is any byte already covered?" test of {!add}
    reads at most [len] bytes, and {!cardinal} is a counter.  The map
    only grows: an instruction, once recorded, stays. *)

type t

(** [create ranges] is an empty map over the address ranges [\[lo, hi)]
    (the executable sections); overlapping or adjacent ranges are
    merged. *)
val create : (int * int) list -> t

(** Longest instruction {!add} accepts. *)
val max_len : int

(** [add t ~lo ~hi] marks every byte of the instruction [\[lo, hi)] as
    code, records the instruction unless one of its bytes is already
    covered (first writer wins), and says whether it recorded it.
    Raises [Invalid_argument], before it writes anything, when the
    length is outside [1 .. max_len] or the instruction is not inside
    one range of the map. *)
val add : t -> lo:int -> hi:int -> bool

(** [find t addr] is the [(lo, hi)] of the recorded instruction covering
    [addr]. *)
val find : t -> int -> (int * int) option

(** Does a recorded instruction cover the address? *)
val mem : t -> int -> bool

(** Is the address a byte of an instruction handed to {!add}? *)
val in_code : t -> int -> bool

(** [covered t ~lo ~hi] is how many bytes of [\[lo, hi)] recorded
    instructions cover.  It reads only the bytes of [\[lo, hi)] inside
    the map's ranges, so it costs at most the text size. *)
val covered : t -> lo:int -> hi:int -> int

(** First recorded instruction starting at or after the address. *)
val next_from : t -> int -> (int * int) option

(** Number of recorded instructions. *)
val cardinal : t -> int

(** Every recorded instruction, ascending. *)
val iter : t -> (lo:int -> hi:int -> unit) -> unit

(** Every recorded instruction, ascending. *)
val to_list : t -> (int * int) list
