(** Recursive-descent disassembly engine: the "safe recursive disassembly"
    of §IV-C, which FETCH and the GHIDRA, ANGR and pattern-tool models all
    start from.

    Starting from a seed set of function entries (FDE starts, symbols),
    the engine follows intra-procedural control flow per function, adds
    targets of direct calls as new function entries, resolves
    bounds-checked jump tables, skips indirect calls, performs no
    tail-call guessing — a direct jump to a known function entry ends the
    block and is recorded as an outgoing jump — and runs a
    non-returning-function analysis to convergence so no block is placed
    after a call that cannot return.

    The analysis is one fixpoint of the binary, the seed set and the
    committed functions, with no order in it (DESIGN.md, "The noreturn
    fixpoint").  A discovery walk stops only at seeds and committed
    entries; the entries are the seeds plus every text callee the
    discovery walks reach from them.  Each entry's body is its walk that
    stops at every entry, and the noreturn and conditionally-noreturn
    facts are learned from the bodies until none is.  Facts only grow,
    so the loop ends, and each pass depends on the facts alone, so it
    has one answer; a fact learned for an entry that did not stay is
    dropped at the end.  The engine keeps one discovery walk per entry
    and, when an entry flips, walks again only its discovery callers;
    the test suite computes the same fixpoint naively as a reference
    model.

    A result only grows: {!extend} adds functions and instructions to it
    in place and reports them as a {!delta}, which is all an incremental
    consumer (the §IV-E rounds of [Xref]) has to fold. *)

type func = {
  entry : int;
  mutable blocks : (int * int) list;  (** decoded [lo, hi) ranges *)
  mutable calls : (int * int) list;  (** call site, direct target *)
  mutable out_jumps : (int * int) list;
      (** direct jumps leaving the function: site, target *)
  mutable all_jump_sites : (int * int) list;
      (** every direct/conditional jump with its target (incl. intra) *)
  mutable table_targets : (int * int list) list;  (** resolved jump tables *)
  mutable unresolved_indirect_jump : bool;
  mutable has_ret : bool;
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
  new_funcs : func list;  (** the functions added, ascending by entry *)
  new_spans : (int * int) list;
      (** the instructions added to [insn_spans], in decode order *)
}

(** Run the engine from the given seed entries: {!extend}'s fixpoint,
    started from an empty result.  The result depends on the set of
    seeds, not on their order or repeats.  [safe] (default [true]) is the
    paper's engine.  [~safe:false] is the weaker engine of the BAP model:
    indirect jumps stay unresolved ([unresolved_indirect_jump]) and there
    is no noreturn analysis, so every call falls through. *)
val run : ?safe:bool -> Loaded.t -> seeds:int list -> result

(** [extend loaded res ~seeds] grows [res] in place with extra seeds,
    disassembling only what is reachable from them, and returns exactly
    what it added.  It computes the same fixpoint as {!run}, with the
    functions of [res] as committed entries: a noreturn fact learned on
    the way re-walks only the new functions that call the flipped entry.
    Equivalent to re-running from scratch with the union of seeds
    *provided* no committed function transfers control to a fresh seed
    and no fresh function transfers into the committed extents except at
    a committed entry — exactly what xref validation guarantees for
    accepted function pointers (§IV-E).  A seed that lies inside the
    committed instructions, other than a committed entry, breaks that
    and raises [Invalid_argument] before [res] changes.  [res] must come
    from {!run} or {!extend} on this [loaded]: its entries start blocks
    of [loaded]'s block cache.  Always runs the safe engine. *)
val extend : Loaded.t -> result -> seeds:int list -> delta

(** Detected function starts, ascending. *)
val starts : result -> int list

(** {2 Does a call return?}

    The one rule for whether execution continues after a direct call,
    shared by the engine's noreturn analysis (§IV-C) and [Callconv]'s
    §IV-E walk: a call to a noreturn entry never returns, and a call to
    an [error]-style entry returns only when the first argument is
    provably zero at the call. *)

(** The first argument (rdi) at a call site, as far as §IV-C's backward
    slice can prove it. *)
type first_arg = Fetch_x86.Block_table.first_arg = Zero | Nonzero | Unknown

(** [first_arg_step tbl s arg] is the first argument after the
    instruction in slot [s] of [tbl]:
    [mov edi, 0] and [xor edi, edi] make it [Zero], a move of any other
    immediate makes it [Nonzero], and any other write to rdi or any call
    makes it [Unknown].  A block starts at [Unknown]: the engine folds
    this step over the block decoded so far, and only at a call to an
    [error]-style callee. *)
val first_arg_step : Fetch_x86.Insn_table.t -> int -> first_arg -> first_arg

(** [call_returns ~noreturn ~cond_noreturn arg t]: does a direct call
    to [t] return under these facts, when [arg] is the first argument at
    the call? *)
val call_returns :
  noreturn:(int, unit) Hashtbl.t ->
  cond_noreturn:(int, unit) Hashtbl.t ->
  first_arg ->
  int ->
  bool

(** {2 Building blocks of a from-scratch model} *)

(** [walk ?safe loaded ~noreturn ~cond_noreturn ~starts entry] is one
    walk of the function at [entry]: the engine's own walker over the
    cached blocks of [loaded], which stops at the keys of [starts] (made
    block starts first) and, as {!run} does, makes each direct callee a
    block start as it is found.  [safe] is as for {!run}.  Each of the
    function's [blocks] is one run of instructions decoded back to back;
    the blocks are listed newest first. *)
val walk :
  ?safe:bool ->
  Loaded.t ->
  noreturn:(int, unit) Hashtbl.t ->
  cond_noreturn:(int, unit) Hashtbl.t ->
  starts:(int, unit) Hashtbl.t ->
  int ->
  func

(** [detect_cond_noreturn loaded e]: does [e] look like an [error]-style
    function, one that tests its first argument and never returns on the
    nonzero path? *)
val detect_cond_noreturn : Loaded.t -> int -> bool
