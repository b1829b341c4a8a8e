(** The FETCH pipeline (§VI): FDE extraction → safe recursive disassembly
    → function-pointer detection → FDE error fixing.

    FDE starts and any surviving symbols always seed the safe engine.
    Pointer detection and the fix stage can be switched off, so the
    evaluation can measure each prefix of the pipeline (Figure 5's FETCH
    stack); Algorithm 1's height source is the §V-B ablation's switch.

    Each detection takes one reference census: {!Xref.detect} returns
    the one its rounds grew, or, with pointer detection off, the
    pipeline collects it once.  The broken-FDE check, Algorithm 1 and
    the linter read that census, and a reseed (its own detection) takes
    its own, so a run collects once, or twice when it reseeds. *)

type config = {
  xref : bool;  (** §IV-E pointer detection *)
  fix_fde_errors : bool;
      (** Algorithm 1 + the broken-FDE calling-convention check *)
  alg1_heights : Tailcall.height_source;
      (** stack-height source for Algorithm 1 (CFI oracle in the paper) *)
}

val default_config : config

type result = {
  starts : int list;  (** final detected function starts, ascending *)
  final_seeds : int list;
      (** the seed set the last engine run started from: FDE starts
          (minus callconv-invalid ones), symbols, and every pointer
          §IV-E accepted — so reports can attribute each start to its
          source *)
  rec_result : Fetch_analysis.Recursive.result;
  tailcall : Tailcall.outcome option;  (** [None] when the fix stage is off *)
  refs : Refs.t;
      (** the reference census of [rec_result], the one the broken-FDE
          check and Algorithm 1 ran on *)
  invalid_fde_starts : int list;
      (** FDE starts rejected as unreferenced + calling-convention-invalid
          (the hand-broken FDEs of Fig. 6b); [[]] when the fix stage is
          off *)
  loaded : Fetch_analysis.Loaded.t;
      (** the binary, with its FDE starts and [.eh_frame] parse health *)
}

(** Run FETCH on an already-loaded binary. *)
val run_loaded : ?config:config -> Fetch_analysis.Loaded.t -> result

(** Run FETCH on an ELF image. *)
val run : ?config:config -> Fetch_elf.Image.t -> result

(** Run FETCH on raw ELF bytes. *)
val run_bytes :
  ?config:config -> string -> (result, Fetch_elf.Decode.error) Stdlib.result
