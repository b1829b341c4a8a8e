(** Static stack-height analysis, modelling the analyses shipped by ANGR
    and DYNINST that Table IV compares against the CFI oracle and the
    §V-B ablation feeds to Algorithm 1.

    The walker propagates the stack height (bytes pushed since function
    entry) across the CFG it can recover.  Both styles share the
    linear-decode defect: after an unconditional jump they keep decoding
    straight on, and first write wins, so the straight-line guess can
    plant wrong heights.  Both assume an unknown callee preserves rsp. *)

(** The two tools differ only in jump-table power.  [Dyninst] resolves the
    register-load form ([mov r, \[table+idx*8\]; jmp r]) and keeps
    decoding straight past an indirect jump it cannot resolve; [Angr]
    resolves neither, so those case blocks stay unvisited. *)
type style = Angr | Dyninst

(** [analyze loaded ~style entry] is the height (bytes grown since
    entry) at each address reached from [entry], [None] at any other;
    first write wins. *)
val analyze : Loaded.t -> style:style -> int -> int -> int option

(** {2 The solve behind {!analyze}}

    What {!analyze} hands the dataflow engine, so that a reference
    engine can run the same problem: the state is the height, from [0]
    at the entry, with unbounded fuel. *)

module Lattice :
  Fetch_check.Dataflow.LATTICE with type state = int and type fatal = unit

val policy : Loaded.t -> style:style -> (int, unit) Fetch_check.Dataflow.policy
