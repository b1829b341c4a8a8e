(** Reference collection (§IV-E): the conservative super-set of potential
    function pointers, and the reference census Algorithm 1 needs.

    Pointer candidates come from two sources: every consecutive 8-byte
    window of the data sections ([.eh_frame] excluded — unwinding
    metadata is not program data), and every constant operand of the
    disassembled code (immediates, absolute displacements, resolved
    RIP-relative targets). *)

type kind =
  | Data_pointer of int  (** found at this data address *)
  | Code_constant of int  (** constant operand of the instruction here *)
  | Call_target of int  (** direct call site *)
  | Jump_target of int * int  (** jump site, owning function entry *)

type t

(** References to a given target address. *)
val refs_to : t -> int -> kind list

(** Collect all references in the binary given the current disassembly. *)
val collect : Fetch_analysis.Loaded.t -> Fetch_analysis.Recursive.result -> t

(** Accumulator for incremental collection across xref rounds: the
    data-section window refs (computed once, with a rolling unsafe-read
    prefilter) plus the code refs of every span / function seen so far. *)
type incr

(** Create the accumulator and run the one-time data-section window
    scan. *)
val incr_create : Fetch_analysis.Loaded.t -> incr

(** Fold the refs of a (monotonically grown) result into the accumulated
    table and return it.  Sound only when successive results only add
    spans and functions — what {!Fetch_analysis.Recursive.extend}
    guarantees; then the result equals [collect loaded res]. *)
val incr_refresh : incr -> Fetch_analysis.Recursive.result -> t

(** Candidate pointers for §IV-E validation: data pointers and code
    constants only (call/jump targets are already handled by the
    recursion), ascending. *)
val pointer_candidates : t -> int list

(** Is [target] referenced by anything other than jumps from [entry]?
    (Criterion 3 of Algorithm 1.) *)
val referenced_outside_jumps_of : t -> entry:int -> int -> bool
