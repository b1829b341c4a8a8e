(** Compiler/optimization profiles: the knobs that shape generated code.

    Each profile sets the per-function probabilities of the constructs
    that matter to function detection, calibrated so corpus-wide
    statistics track the paper's observations (hot/cold splitting grows
    with optimization, -Os avoids it and drops alignment, etc.). *)

type compiler = Synthgcc | Synthllvm

type opt = O2 | O3 | Os | Ofast

val compiler_name : compiler -> string
val opt_name : opt -> string

(** O2, O3, Os, Ofast — the levels of the paper's corpus (§IV-A). *)
val all_opts : opt list

type t = {
  compiler : compiler;
  opt : opt;
  p_cold_split : float;  (** probability a framed function is split *)
  p_tail_call : float;  (** probability a function ends in a tail call *)
  p_switch : float;  (** probability a statement is a jump-table switch *)
  p_rbp_frame : float;  (** frame-pointer functions (incomplete CFI) *)
  p_frameless : float;
  p_noreturn_call : float;
  p_entry_jump : float;  (** rotated-loop entries (start with jmp) *)
  p_entry_nops : float;  (** hot-patchable entries (leading nops) *)
  p_indirect_call : float;
  p_reg_pointer_call : float;
  pic_tables : bool;  (** PIC-style (offset) jump tables vs absolute *)
  body_scale : float;  (** multiplier on body statement counts *)
  align : int;
  endbr : bool;
  p_orphan : float;
      (** functions never referenced by direct calls (exported-API style) *)
  p_text_junk : float;
      (** probability of a junk blob (literal-pool style) after a function *)
  junk_scale : int;  (** size multiplier on junk blobs (adversarial padding) *)
  p_junk_prologue : float;
      (** probability each junk-blob slot embeds a prologue-looking fragment *)
  junk_endbr : bool;  (** junk fragments lead with endbr64 (CET-style decoys) *)
  p_table_pool : float;
      (** probability of a jump-table-style pool (4-byte offset rows) after a
          function *)
}

val make : compiler -> opt -> t

(** e.g. ["gcc-O2"]. *)
val name : t -> string

(** Profile invariant: every [p_*] knob in [[0,1]], [align] a power of
    two, [body_scale] positive, [junk_scale >= 1].  Holds for every
    {!make} output and must hold for derived (adversarial) profiles. *)
val check : t -> (unit, string) result

(** Force a derived profile back into range: [p_*] knobs clamped to
    [[0,1]] (NaN → 0), [align] rounded down to a power of two (floor 1),
    non-positive [body_scale] reset to 1, [junk_scale] floored to 1.
    [check (clamp p) = Ok ()]. *)
val clamp : t -> t
