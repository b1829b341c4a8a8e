(** Linear-sweep disassembly with one-byte resynchronization, plus the
    gap enumeration used by the heuristic passes (angr's scan, prologue
    matching, NUCLEUS). *)

(** Decode [\[lo, hi)] linearly; on an undecodable byte, skip one byte
    and retry.  Returns instructions in order and the skipped (junk)
    byte addresses. *)
val decode_range :
  Loaded.t -> lo:int -> hi:int -> (int * int * Fetch_x86.Insn.t) list * int list

(** Maximal sub-ranges of the executable sections not covered by
    [covered] (the instruction table of a recursive run: its claimed
    bytes are the bytes of its instructions). *)
val gaps : Loaded.t -> covered:Fetch_util.Insn_index.t -> (int * int) list

(** Length of the leading padding run at [lo] (for angr's
    alignment-function heuristic). *)
val leading_padding : Loaded.t -> lo:int -> hi:int -> int
