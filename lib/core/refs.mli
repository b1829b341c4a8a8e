(** Reference collection (§IV-E): the conservative super-set of potential
    function pointers, and the reference census Algorithm 1 needs.

    Pointer candidates come from two sources: every consecutive 8-byte
    window of the data sections ([.eh_frame] excluded — unwinding
    metadata is not program data), and every constant operand of the
    disassembled code (immediates, absolute displacements, resolved
    RIP-relative targets).  {!collect} builds a table from a whole
    result, and §IV-E's rounds grow it with {!add_delta}.

    A detection takes the census once: [Xref.detect] returns the table
    its rounds grew (or the pipeline collects it once when pointer
    detection is off), and the broken-FDE check, Algorithm 1 and the
    linter all read that one table.  Only the order of a [refs_to] list
    can tell a grown table from a collected one, and none of them reads
    it. *)

type kind =
  | Data_pointer of int  (** found at this data address *)
  | Code_constant of int  (** constant operand of the instruction here *)
  | Call_target of int  (** direct call site *)
  | Jump_target of int * int  (** jump site, owning function entry *)

type t

(** References to a given target address. *)
val refs_to : t -> int -> kind list

(** Collect all references in the binary given the current disassembly,
    under a ["refs.collect"] span, so a trace counts the censuses. *)
val collect : Fetch_analysis.Loaded.t -> Fetch_analysis.Recursive.result -> t

(** [add_delta loaded t d] folds in the code refs of what one
    {!Fetch_analysis.Recursive.extend} call added.  Starting from
    [collect loaded res] and folding every delta that grows [res] gives
    the refs [collect] finds on the grown result, each [refs_to] list
    possibly in another order.

    Returns the targets the delta made {!pointer_candidates} that were
    not candidates before, each once, in no particular order: the
    candidates of [t] after the call are those before it plus these.
    They are code-constant targets, since the data windows never
    change. *)
val add_delta :
  Fetch_analysis.Loaded.t -> t -> Fetch_analysis.Recursive.delta -> int list

(** Candidate pointers for §IV-E validation: data pointers and code
    constants only (call/jump targets are already handled by the
    recursion), ascending. *)
val pointer_candidates : t -> int list

(** Is [target] referenced by anything other than jumps from [entry]?
    (Criterion 3 of Algorithm 1.) *)
val referenced_outside_jumps_of : t -> entry:int -> int -> bool
