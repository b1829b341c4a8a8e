(** The FETCH pipeline (§VI): FDE extraction → safe recursive disassembly →
    function-pointer detection → FDE error fixing.

    Each stage can be switched off so the evaluation can measure every
    prefix of the pipeline (Figure 5's strategy stacks). *)

open Fetch_analysis
module Obs = Fetch_obs.Trace
module Prov = Fetch_obs.Provenance

(* Stage instrumentation: seed-source contributions and the Fig. 6b
   hand-broken-FDE rejections. *)
let c_seeds_fde = Obs.counter "pipeline.seeds.fde"
let c_seeds_symbol = Obs.counter "pipeline.seeds.symbol"
let c_seeds_final = Obs.counter "pipeline.seeds.final"
let c_invalid_fde = Obs.counter "pipeline.invalid_fde_rejected"

type config = {
  use_symbols : bool;  (** seed from surviving symbols too *)
  recursive : bool;  (** run safe recursive disassembly *)
  xref : bool;  (** §IV-E pointer detection *)
  fix_fde_errors : bool;  (** Algorithm 1 + broken-FDE calling-convention check *)
  alg1_heights : Tailcall.height_source;
      (** stack-height source for Algorithm 1 (CFI oracle in the paper;
          a static analysis for the §V-B ablation) *)
  engine : Recursive.config;
  xref_strategy : Xref.strategy;
      (** incremental per-round extension (default) or the from-scratch
          rescan it is differentially tested against *)
}

let default_config =
  {
    use_symbols = true;
    recursive = true;
    xref = true;
    fix_fde_errors = true;
    alg1_heights = Tailcall.Cfi_oracle;
    engine = Recursive.safe_config;
    xref_strategy = Xref.Incremental;
  }

(* The seed set both detection passes start from: FDE starts plus
   (optionally) symbol starts, minus [excluding], deduped and sorted.
   [excluding] membership goes through a hash set — the callconv check
   can reject many starts and [List.mem] made this quadratic. *)
let seed_set ?(excluding = []) ~use_symbols loaded =
  let excluded =
    let tbl = Hashtbl.create (List.length excluding) in
    List.iter (fun s -> Hashtbl.replace tbl s ()) excluding;
    tbl
  in
  loaded.Loaded.fde_starts
  @ (if use_symbols then loaded.Loaded.symbol_starts else [])
  |> List.filter (fun s -> not (Hashtbl.mem excluded s))
  |> List.sort_uniq compare

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
  rec_result : Recursive.result;
  tailcall : Tailcall.outcome option;
  refs : Refs.t option;  (** Algorithm 1's census of [rec_result] *)
  invalid_fde_starts : int list;  (** FDE starts rejected as callconv-invalid *)
  loaded : Loaded.t;
}

(** Run FETCH on a loaded binary. *)
let run_loaded ?(config = default_config) loaded =
  Obs.span "pipeline" @@ fun () ->
  (* 1. FDE starts (+ symbols, normally absent in stripped binaries) *)
  let seeds =
    Obs.span "seeds" @@ fun () ->
    Obs.add c_seeds_fde (List.length loaded.Loaded.fde_starts);
    if config.use_symbols then
      Obs.add c_seeds_symbol (List.length loaded.Loaded.symbol_starts);
    if Prov.enabled () then begin
      List.iter
        (fun s -> Prov.emit ~ev:"seed.fde" ~addr:s [])
        loaded.Loaded.fde_starts;
      if config.use_symbols then
        List.iter
          (fun s -> Prov.emit ~ev:"seed.symbol" ~addr:s [])
          loaded.Loaded.symbol_starts
    end;
    seed_set ~use_symbols:config.use_symbols loaded
  in
  (* 2-3. safe recursive disassembly, with pointer detection iterating *)
  let res, seeds =
    if config.recursive then
      if config.xref then
        Xref.detect ~config:config.engine ~strategy:config.xref_strategy loaded
          ~seeds
      else (Recursive.run ~config:config.engine loaded ~seeds, seeds)
    else
      (* degenerate engine run that only registers the seed entries *)
      ( Recursive.run
          ~config:
            { config.engine with resolve_jump_tables = false; max_noreturn_iters = 0 }
          loaded ~seeds,
        seeds )
  in
  (* 4. fix FDE-introduced errors *)
  (* one [verdict.start] per kept start closes every surviving subject's
     chain in the ledger *)
  let record_verdicts starts =
    if Prov.enabled () then
      List.iter (fun s -> Prov.emit ~ev:"verdict.start" ~addr:s []) starts
  in
  if not config.fix_fde_errors then begin
    Obs.add c_seeds_final (List.length seeds);
    record_verdicts (Recursive.starts res);
    {
      starts = Recursive.starts res;
      eh_frame = loaded.Loaded.eh_frame;
      fde_starts = loaded.Loaded.fde_starts;
      final_seeds = seeds;
      rec_result = res;
      tailcall = None;
      refs = None;
      invalid_fde_starts = [];
      loaded;
    }
  end
  else begin
    (* 4a. hand-broken FDEs (Fig. 6b): calling-convention check on every
       start directly identified from an FDE.  Cold parts of non-contiguous
       functions can also read callee-saved registers at their entry, but
       they are always referenced by a jump from their hot part — an FDE
       start that both violates the convention and is referenced by nothing
       at all cannot be a real function or a function part. *)
    let invalid, refs0 =
      Obs.span "fde_callconv_check" @@ fun () ->
      let refs0 = Refs.collect loaded res in
      let noreturn t = Hashtbl.mem res.Recursive.noreturn t in
      let cond_noreturn t = Hashtbl.mem res.Recursive.cond_noreturn t in
      ( List.filter
          (fun s ->
            Refs.refs_to refs0 s = []
            && Callconv.validate ~noreturn ~cond_noreturn loaded s
               = Callconv.Invalid)
          loaded.Loaded.fde_starts,
        refs0 )
    in
    Obs.add c_invalid_fde (List.length invalid);
    if Prov.enabled () then
      List.iter
        (fun s ->
          (* Fig. 6b: unreferenced + callconv-invalid FDE start; the
             evidence costs a diagnostic walk, paid only here *)
          let noreturn t = Hashtbl.mem res.Recursive.noreturn t in
          let cond_noreturn t = Hashtbl.mem res.Recursive.cond_noreturn t in
          let fields =
            match Callconv.validate_diag ~noreturn ~cond_noreturn loaded s with
            | Error (v : Callconv.violation) ->
                ("viol_at", Prov.I v.at)
                ::
                (match v.reg with
                | Some r -> [ ("viol_reg", Prov.S (Fetch_x86.Reg.name64 r)) ]
                | None -> [ ("viol_reg", Prov.S "undecodable") ])
            | Ok () -> []
          in
          Prov.emit ~ev:"fde.invalid" ~addr:s
            (("why", Prov.S "unreferenced_callconv_violation") :: fields))
        invalid;
    (* the census stays valid only when the detection result does *)
    let res, seeds, refs =
      if invalid = [] then (res, seeds, refs0)
      else begin
        (* drop them and re-run detection without those seeds *)
        if Prov.enabled () then
          Prov.emit ~ev:"pipeline.reseed" ~addr:0
            [ ("dropped", Prov.I (List.length invalid)) ];
        let seeds' =
          seed_set ~excluding:invalid ~use_symbols:config.use_symbols loaded
        in
        let res', seeds' =
          if config.xref then
            Xref.detect ~config:config.engine ~strategy:config.xref_strategy
              loaded ~seeds:seeds'
          else (Recursive.run ~config:config.engine loaded ~seeds:seeds', seeds')
        in
        (res', seeds', Refs.collect loaded res')
      end
    in
    Obs.add c_seeds_final (List.length seeds);
    (* 4b. Algorithm 1 *)
    let outcome = Tailcall.run ~heights:config.alg1_heights ~refs loaded res in
    record_verdicts outcome.kept_starts;
    {
      starts = outcome.kept_starts;
      eh_frame = loaded.Loaded.eh_frame;
      fde_starts = loaded.Loaded.fde_starts;
      final_seeds = seeds;
      rec_result = res;
      tailcall = Some outcome;
      refs = Some refs;
      invalid_fde_starts = invalid;
      loaded;
    }
  end

(** Run FETCH on an ELF image. *)
let run ?config image = run_loaded ?config (Loaded.load image)

(** Run FETCH on raw ELF bytes. *)
let run_bytes ?config raw =
  Result.map (fun image -> run ?config image) (Fetch_elf.Decode.decode raw)
