(** A binary's executable address ranges laid end to end as one offset
    space: the index of every per-byte table over its text.

    {!create} drops empty ranges, sorts the rest and merges overlapping
    or adjacent ones; the bytes of the merged ranges, ascending, are the
    offsets [0 .. size - 1].  The decode table
    ({!Fetch_x86.Insn_table}) and the committed-code byte map
    ({!Insn_index}) both look addresses up here. *)

type t

val create : (int * int) list -> t

(** Number of bytes in the ranges. *)
val size : t -> int

(** The offset of an address, or [-1] outside every range. *)
val offset : t -> int -> int

(** [span t ~lo ~hi] is the offset of [lo] when [\[lo, hi)] is non-empty
    and lies inside one range, or [-1]. *)
val span : t -> lo:int -> hi:int -> int

(** [iter t f] calls [f ~lo ~hi ~base] for each range [\[lo, hi)],
    ascending, where [base] is the offset of [lo]. *)
val iter : t -> (lo:int -> hi:int -> base:int -> unit) -> unit
