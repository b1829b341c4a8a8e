(** Cross-layer consistency linter.

    The pipeline's layers — the [.eh_frame] CFA tables, the recursive
    disassembly, the §IV-E checks, Algorithm 1 — each make claims about
    the same bytes.  The linter cross-examines those claims after a run
    and emits a {!Finding.t} per disagreement.  Rule catalogue, with each
    rule's cost in [B] blocks, [J] jumps and [D] FDEs:

    - [func-overlap] — two detected functions decode the same bytes with
      disagreeing instruction boundaries ([Error]); agreeing boundaries
      (shared code) are reported as [Info].  At most one finding per
      function pair, from its first overlapping block pair in block-list
      order.  A sweep over a block index sorted by start:
      O(B log B + overlapping block pairs), plus one boundary walk per
      finding; the sort is of packed ints (start, block number).
    - [jump-mid-insn] — a direct/conditional jump lands strictly inside a
      committed instruction ([Error]).  O(J).
    - [jump-mid-func] — a jump from one function lands inside another
      detected function's body at an address that function never treats
      as a block start ([Warning]; the paper's error class iii).  At most
      one finding per (site, target), naming the first such function.
      One stabbing query on the same index per jump: O(J log B), plus
      the blocks that contain the target.
    - [fde-unreached] — an FDE-covered byte range the recursive
      disassembly never decoded at all ([Warning]); partially decoded
      ranges (e.g. landing pads outside the CFG) are [Info].  A walk over
      the committed instructions of each FDE range.
    - [start-callconv] — a kept function start that fails the §IV-E
      register-initialization lattice ([Warning]).  One §IV-E dataflow
      solve per function.
    - [height-mismatch] — a sound join-based stack-height dataflow (run on
      {!Dataflow.Join_fixpoint}) disagrees with the CFI height oracle
      inside rsp-complete CFI coverage ([Warning]).  One solve per
      function whose entry has complete CFI; the solve records a state
      per block entry, and each is expanded alongside the oracle in one
      pass.
    - [split-fn-fde] — a kept function jumps out of its blocks to an FDE
      start that nothing but its own jumps references, and that FDE
      begins at the jump site's nonzero CFI height: the FDE describes a
      split-off fragment of the function, not a function ([Warning];
      Fig. 6b's non-contiguous case, the one Algorithm 1 merges).
      O(D + J) table lookups plus one reference query per candidate.

    The linter consumes a {!view} — plain data, the block table and
    closures — so it depends on no particular pipeline;
    [Fetch_core.Lint] adapts a finished pipeline result into one. *)

open Fetch_x86

(** One detected (final) function. *)
type func = {
  entry : int;
  blocks : (int * int) list;  (** decoded [lo, hi) ranges *)
  jumps : (int * int) list;  (** direct/conditional jump site, target *)
}

type view = {
  block_table : Block_table.t;
      (** the decoded text's cached blocks, over its decode table
          (instructions, their facts and the text ranges) *)
  funcs : func list;  (** final detected functions *)
  insn_spans : Fetch_util.Insn_index.t;
      (** committed instruction extents of the whole run *)
  fdes : (int * int) list;  (** every FDE's [pc_begin, pc_begin+range) *)
  complete_at : int -> bool;
      (** is the address inside an FDE whose CFI passes the §V-B
          rsp-completeness test? *)
  oracle_height : int -> int option;
      (** CFI stack height, complete only; the height rule asks it about
          ascending addresses, block by block *)
  entry_height : int -> int option;
      (** CFI stack height without the completeness test — a fragment's
          FDE starts mid-frame, so only the raw table answers there *)
  callconv_ok : int -> bool;  (** §IV-E verdict for a candidate start *)
  call_returns : int -> bool;
      (** does execution continue after a direct call to this target?
          (after an indirect call it always does) *)
  referenced_outside_jumps_of : entry:int -> int -> bool;
      (** is the address referenced by anything but jumps of [entry]?
          (criterion 3 of Algorithm 1) *)
  resolve_indirect :
    window:(int * int * Insn.t) list -> Insn.operand -> int list option;
      (** jump-table resolution for the height dataflow *)
}

(** Run every rule; findings come back sorted (most severe first, then by
    address).  Each finding is a decision: it bumps its rule's counter
    ([lint.findings.<rule>]) and, while a ledger run is live, records a
    [lint.finding] event, in sorted order. *)
val run : view -> Finding.t list

(** {2 The solve behind [height-mismatch]}

    What the rule hands the dataflow engine for a function, so that a
    reference engine can run the same problem: the flat lattice, from
    [Known 0] at the entry, joined at block entries. *)

module Height : sig
  type state = Known of int | Top

  include Dataflow.LATTICE with type state := state and type fatal = unit
end

(** Jump tables and call fall-through from the view, confined to the
    function's blocks. *)
val height_policy : view -> func -> (Height.state, unit) Dataflow.policy
