(** Image-wide stack-height oracle backed by CFI tables.

    FETCH's Algorithm 1 consults this instead of a static stack-height
    analysis: for a jump site it answers "what is the stack height
    here?", but only inside functions whose CFI passes the completeness
    test of §V-B — other functions are skipped, which is exactly the
    paper's conservative implementation choice. *)

type entry = {
  fde : Eh_frame.fde;
  rows : Cfa_table.row list;
  complete : bool;
}

type t

val create : Eh_frame.cie list -> t

(** The FDE entry whose range contains [addr]. *)
val entry_at : t -> int -> entry option

(** Is [addr] inside a function whose CFI gives complete rsp-based
    heights? *)
val complete_at : t -> int -> bool

(** Stack height at [addr]; [None] outside FDE coverage or where the CFI
    is incomplete. *)
val height_at : t -> int -> int option

(** Height regardless of the completeness test — what the lint rule
    [split-fn-fde] reads at a fragment's FDE start, which lies mid-frame
    and so never passes the test. *)
val height_at_unchecked : t -> int -> int option

(** Iterate every FDE-covered range [\[lo, hi)] whose CFI passes the
    completeness test — the ranges where {!height_at} answers. *)
val iter_complete : t -> (lo:int -> hi:int -> unit) -> unit

(** The FDE beginning exactly at [addr], if any. *)
val fde_starting_at : t -> int -> Eh_frame.fde option
