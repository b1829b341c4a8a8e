(** Recursive-descent disassembly engine: the "safe recursive disassembly"
    of §IV-C, which FETCH and the GHIDRA, ANGR and pattern-tool models all
    start from.

    Starting from a seed set of function entries (FDE starts, symbols),
    the engine follows intra-procedural control flow per function, adds
    targets of direct calls as new function entries, resolves
    bounds-checked jump tables, skips indirect calls, performs no
    tail-call guessing — a direct jump to a known function entry ends the
    block and is recorded as an outgoing jump — and iterates a
    non-returning-function analysis so no block is placed after a call
    that cannot return.  Each run re-walks for new noreturn facts at most
    [max_noreturn_iters] times.

    A result only grows: {!extend} adds functions and instructions to it
    in place and reports them as a {!delta}, which is all an incremental
    consumer (the §IV-E rounds of [Xref]) has to fold. *)

type func = {
  entry : int;
  mutable blocks : (int * int) list;  (** decoded [lo, hi) ranges *)
  mutable calls : (int * int) list;  (** call site, direct target *)
  mutable out_jumps : (int * Fetch_x86.Insn.t * int) list;
      (** direct jumps leaving the function: site, insn, target *)
  mutable all_jump_sites : (int * Fetch_x86.Insn.t * int) list;
      (** every direct/conditional jump with its target (incl. intra) *)
  mutable table_targets : (int * int list) list;  (** resolved jump tables *)
  mutable unresolved_indirect_jump : bool;
  mutable has_ret : bool;
  mutable has_indirect_call : bool;
  mutable decode_error : bool;
}

type result = {
  funcs : (int, func) Hashtbl.t;
  noreturn : (int, unit) Hashtbl.t;  (** entries that can never return *)
  cond_noreturn : (int, unit) Hashtbl.t;  (** [error]-style entries *)
  insn_spans : Fetch_util.Insn_index.t;
      (** every decoded instruction extent *)
}

(** What one {!extend} call added to its result. *)
type delta = {
  new_funcs : func list;  (** the functions added, in walk order *)
  new_spans : (int * int) list;
      (** the instructions added to [insn_spans], in decode order *)
}

(** Budget of noreturn re-walks per [run] or [extend] call.  The fixpoint
    is not run to convergence: a chain of N functions, each calling the
    next, needs N full re-walks, and the serve deadline is only checked
    between stages, so on hostile input this constant is what bounds the
    engine's cost. *)
val max_noreturn_iters : int

(** Run the engine from the given seed entries: {!extend}'s loop,
    started from an empty result.  [safe] (default [true]) is the
    paper's engine.  [~safe:false] is the weaker engine of the BAP model:
    indirect jumps stay unresolved ([unresolved_indirect_jump]) and there
    is no noreturn analysis, so every call falls through. *)
val run : ?safe:bool -> Loaded.t -> seeds:int list -> result

(** [extend loaded res ~seeds] grows [res] in place with extra seeds,
    disassembling only what is reachable from them, and returns exactly
    what it added.  A noreturn fact learned on the way re-walks only the
    new functions.  Equivalent to re-running from scratch with the union
    of seeds *provided* no committed function transfers control to a
    fresh seed and no fresh function transfers into the committed
    extents except at a committed entry — exactly what xref validation
    guarantees for accepted function pointers (§IV-E).  Always runs the
    safe engine. *)
val extend : Loaded.t -> result -> seeds:int list -> delta

(** Detected function starts, ascending. *)
val starts : result -> int list
