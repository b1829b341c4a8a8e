(** Map from disjoint half-open address intervals [\[lo, hi)] to values.

    Holds the CFI height oracle's FDE ranges and the xref function
    extents, so the paper's "control transfer into the middle of a
    previously detected function" check is a [find] query here.
    Instruction spans are not interval maps: they live in the flat
    {!Insn_index}. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val cardinal : 'a t -> int

(** [find t addr] is [Some (lo, hi, v)] for the interval containing
    [addr]. *)
val find : 'a t -> int -> (int * int * 'a) option

val mem : 'a t -> int -> bool

(** Does [\[lo, hi)] intersect any stored interval? *)
val overlaps : 'a t -> lo:int -> hi:int -> bool

(** [add t ~lo ~hi v] binds [\[lo, hi)]; raises [Invalid_argument] on an
    empty interval or an overlap. *)
val add : 'a t -> lo:int -> hi:int -> 'a -> unit

(** Like {!add} but evicts anything the new interval overlaps. *)
val add_override : 'a t -> lo:int -> hi:int -> 'a -> unit

(** [add_max t ~lo ~hi v] binds [\[lo, hi)] byte-wise, resolving overlap
    toward the larger value (polymorphic compare): overlapping intervals
    with a value [>= v] keep their bytes, smaller ones lose exactly the
    contested bytes, and what remains of [\[lo, hi)] gets [v].  The
    resulting byte → value function depends only on the set of
    insertions, not their order — what lets an incrementally grown map
    equal its from-scratch rebuild.  Raises [Invalid_argument] on an
    empty interval. *)
val add_max : 'a t -> lo:int -> hi:int -> 'a -> unit

(** Remove the interval starting at the given key, if any. *)
val remove : 'a t -> int -> unit

val iter : 'a t -> (lo:int -> hi:int -> 'a -> unit) -> unit
val fold : 'a t -> (lo:int -> hi:int -> 'a -> 'b -> 'b) -> 'b -> 'b

(** All intervals, ascending. *)
val to_list : 'a t -> (int * int * 'a) list

(** First interval starting at or after [addr]. *)
val next_from : 'a t -> int -> (int * int * 'a) option
