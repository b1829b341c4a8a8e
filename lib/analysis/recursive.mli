(** Recursive-descent disassembly engine (the "safe recursive disassembly"
    of §IV-C, and the substrate every baseline model reuses with different
    knobs).

    Starting from a seed set of function entries (FDE starts, symbols),
    the engine follows intra-procedural control flow per function, adds
    targets of direct calls as new function entries, resolves
    bounds-checked jump tables (optionally), skips indirect calls,
    performs no tail-call guessing — a direct jump to a known function
    entry ends the block and is recorded as an outgoing jump — and
    iterates a non-returning-function analysis to fixpoint so no block is
    placed after a call that cannot return. *)

type config = {
  resolve_jump_tables : bool;
  noreturn_aware : bool;
      (** iterate the non-returning analysis; when off, calls always fall
          through (the unsafe behaviour of simpler tools) *)
  stop_at_known_starts : bool;
      (** direct jumps to known function entries end the block instead of
          being followed intra-procedurally *)
  max_noreturn_iters : int;
}

(** The paper's conservative configuration: tables on, noreturn analysis
    on, no tail-call guessing. *)
val safe_config : config

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

(** Run the engine from the given seed entries. *)
val run : ?config:config -> Loaded.t -> seeds:int list -> result

(** [extend loaded ~prior ~seeds] resumes [prior] with extra seeds,
    disassembling only the delta reachable from them; [prior] is not
    mutated: its instruction table is forked page-wise copy-on-write, so
    the fork costs O(pages + delta).  Equivalent to re-running from
    scratch with the union of seeds *provided* no committed function
    transfers control to a fresh seed and no fresh function transfers
    into the committed extents except at a committed entry — exactly
    what xref validation guarantees for accepted function pointers
    (§IV-E). *)
val extend : ?config:config -> Loaded.t -> prior:result -> seeds:int list -> result

(** Detected function starts, ascending. *)
val starts : result -> int list
