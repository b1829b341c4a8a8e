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
      finding.
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
      function whose entry has complete CFI.
    - [split-fn-fde] — a kept function jumps out of its blocks to an FDE
      start that nothing but its own jumps references, and that FDE
      begins at the jump site's nonzero CFI height: the FDE describes a
      split-off fragment of the function, not a function ([Warning];
      Fig. 6b's non-contiguous case, the one Algorithm 1 merges).
      O(D + J) table lookups plus one reference query per candidate.

    The linter consumes a {!view} — plain data, the decode table and
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
  table : Insn_table.t;
      (** the decoded text: instructions, their facts and the text
          ranges *)
  funcs : func list;  (** final detected functions *)
  insn_spans : Fetch_util.Insn_index.t;
      (** committed instruction extents of the whole run *)
  fdes : (int * int) list;  (** every FDE's [pc_begin, pc_begin+range) *)
  complete_at : int -> bool;
      (** is the address inside an FDE whose CFI passes the §V-B
          rsp-completeness test? *)
  oracle_height : int -> int option;  (** CFI stack height, complete only *)
  entry_height : int -> int option;
      (** CFI stack height without the completeness test — a fragment's
          FDE starts mid-frame, so only the raw table answers there *)
  callconv_ok : int -> bool;  (** §IV-E verdict for a candidate start *)
  call_returns : int option -> bool;
      (** does execution continue after a call to this target ([None]:
          an indirect call)? *)
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
