(** The FETCH pipeline (§VI): FDE extraction → safe recursive disassembly
    → function-pointer detection → FDE error fixing.

    Each stage can be switched off so the evaluation can measure every
    prefix of the pipeline (Figure 5's strategy stacks). *)

type config = {
  use_symbols : bool;  (** seed from surviving symbols too *)
  recursive : bool;  (** run safe recursive disassembly *)
  xref : bool;  (** §IV-E pointer detection *)
  fix_fde_errors : bool;
      (** Algorithm 1 + the broken-FDE calling-convention check *)
  alg1_heights : Tailcall.height_source;
      (** stack-height source for Algorithm 1 (CFI oracle in the paper) *)
  engine : Fetch_analysis.Recursive.config;
  xref_strategy : Xref.strategy;
      (** incremental per-round extension (default) or the from-scratch
          rescan it is differentially tested against *)
}

val default_config : config

type result = {
  starts : int list;  (** final detected function starts, ascending *)
  eh_frame : Fetch_dwarf.Eh_frame.decoded;
      (** parse health of [.eh_frame]: recovered records, skipped records
          and the per-record diagnostics *)
  fde_starts : int list;
  final_seeds : int list;
      (** the seed set the last engine run started from: FDE starts
          (minus callconv-invalid ones), symbols, and every pointer
          §IV-E accepted — so reports can attribute each start to its
          source *)
  rec_result : Fetch_analysis.Recursive.result;
  tailcall : Tailcall.outcome option;  (** [None] when the fix stage is off *)
  refs : Refs.t option;
      (** the reference census Algorithm 1 ran on — exactly that of
          [rec_result]; [None] when the fix stage is off *)
  invalid_fde_starts : int list;
      (** FDE starts rejected as unreferenced + calling-convention-invalid
          (the hand-broken FDEs of Fig. 6b) *)
  loaded : Fetch_analysis.Loaded.t;
}

(** Run FETCH on an already-loaded binary. *)
val run_loaded : ?config:config -> Fetch_analysis.Loaded.t -> result

(** Run FETCH on an ELF image. *)
val run : ?config:config -> Fetch_elf.Image.t -> result

(** Run FETCH on raw ELF bytes. *)
val run_bytes :
  ?config:config -> string -> (result, Fetch_elf.Decode.error) Stdlib.result
