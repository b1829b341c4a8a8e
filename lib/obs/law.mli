(** Conservation laws over counters: a stage's total equals the sum of
    its verdict counters, e.g.
    [xref.candidates_scanned = xref.accepted + Σ xref.reject.*], or is
    bounded by it, e.g. [tailcall.merges ≤ Σ tailcall.reject.*].  A stage
    declares its laws next to its counters; any counter list (a
    {!Trace.report}'s, a bench snapshot's) can then be checked against
    every declared law.  Counter merge is addition, so a law that holds
    for every per-task report also holds for their {!Trace.merge}. *)

(** How the total compares with the parts' sum. *)
type relation = Equal | At_most

type t = {
  total : string;  (** the counter compared with the parts' sum *)
  rel : relation;
  parts : string list;
      (** counter names; one ending in [.*] stands for every counter
          with that prefix *)
}

(** Declare a law (normally at module initialisation); [rel] defaults
    to [Equal]. *)
val declare : ?rel:relation -> total:string -> string list -> unit

(** Every declared law, in declaration order. *)
val all : unit -> t list

(** ["total = a + Σ b.*"], or with ["≤"] *)
val to_string : t -> string

(** The declared laws [counters] breaks, each with the total's value and
    the parts' sum.  A law whose total or a named (non-[.*]) part is
    missing from [counters], or with a [.*] part that no counter of
    [counters] matches, is not judged. *)
val broken : (string * int) list -> (t * int * int) list
