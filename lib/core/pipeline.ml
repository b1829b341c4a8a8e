(** The FETCH pipeline (§VI): FDE extraction → safe recursive disassembly →
    function-pointer detection → FDE error fixing.

    Pointer detection and the fix stage can be switched off, so the
    evaluation can measure each prefix of the pipeline (Figure 5's FETCH
    stack); Algorithm 1's height source is the §V-B ablation's switch. *)

open Fetch_analysis
module Obs = Fetch_obs.Trace
module Prov = Fetch_obs.Provenance

(* Stage instrumentation: seed-source contributions and the Fig. 6b
   hand-broken-FDE rejections. *)
let d_seed_fde = Prov.decision "pipeline.seeds.fde" ~ev:"seed.fde" []
let d_seed_symbol = Prov.decision "pipeline.seeds.symbol" ~ev:"seed.symbol" []
let c_seeds_final = Obs.counter "pipeline.seeds.final"

let d_invalid_fde =
  Prov.decision "pipeline.invalid_fde_rejected" ~ev:"fde.invalid"
    [ ("why", Prov.S "unreferenced_callconv_violation") ]

type config = {
  xref : bool;  (** §IV-E pointer detection *)
  fix_fde_errors : bool;  (** Algorithm 1 + broken-FDE calling-convention check *)
  alg1_heights : Tailcall.height_source;
      (** stack-height source for Algorithm 1 (CFI oracle in the paper;
          a static analysis for the §V-B ablation) *)
}

let default_config =
  { xref = true; fix_fde_errors = true; alg1_heights = Tailcall.Cfi_oracle }

(* The seed set both detection passes start from: [loaded]'s FDE ∪
   symbol seeds minus [excluding].  [excluding] membership goes through a
   hash set — the callconv check can reject many starts and [List.mem]
   made this quadratic. *)
let seed_set ?(excluding = []) loaded =
  let excluded =
    let tbl = Hashtbl.create (List.length excluding) in
    List.iter (fun s -> Hashtbl.replace tbl s ()) excluding;
    tbl
  in
  List.filter (fun s -> not (Hashtbl.mem excluded s)) loaded.Loaded.seeds

(* Stages 2-3: safe recursive disassembly, with pointer detection
   iterating on top when it is on; returns the result, its seeds and
   its reference census — the one every later stage reads. *)
let detect config loaded ~seeds =
  if config.xref then Xref.detect loaded ~seeds
  else
    let res = Recursive.run loaded ~seeds in
    (res, seeds, Refs.collect loaded res)

type result = {
  starts : int list;  (** final detected function starts, ascending *)
  final_seeds : int list;
      (** the seed set the last engine run started from: FDE starts
          (minus callconv-invalid ones), symbols, and every pointer
          §IV-E accepted — so reports can attribute each start to its
          source *)
  rec_result : Recursive.result;
  tailcall : Tailcall.outcome option;
  refs : Refs.t;  (** the census of [rec_result] *)
  invalid_fde_starts : int list;  (** FDE starts rejected as callconv-invalid *)
  loaded : Loaded.t;
}

(* 4a. hand-broken FDEs (Fig. 6b): calling-convention check on every
   start directly identified from an FDE.  Cold parts of non-contiguous
   functions can also read callee-saved registers at their entry, but
   they are always referenced by a jump from their hot part — an FDE
   start that both violates the convention and is referenced by nothing
   at all cannot be a real function or a function part.  Returns the
   rejected starts and the detection without them: re-run without those
   seeds when there are any. *)
let drop_invalid_fdes config loaded ((res, _, refs) as detection) =
  let violations =
    Obs.span "fde_callconv_check" @@ fun () ->
    List.filter_map
      (fun s ->
        if Refs.refs_to refs s <> [] then None
        else
          match Callconv.validate loaded res s with
          | Ok () -> None
          | Error v -> Some (s, v))
      loaded.Loaded.fde_starts
  in
  List.iter
    (fun (s, v) -> Prov.decide d_invalid_fde ~addr:s (Callconv.ledger_fields v))
    violations;
  let invalid = List.map fst violations in
  if invalid = [] then ([], detection)
  else begin
    Prov.emit ~ev:"pipeline.reseed" ~addr:0
      [ ("dropped", Prov.I (List.length invalid)) ];
    (invalid, detect config loaded ~seeds:(seed_set ~excluding:invalid loaded))
  end

(** Run FETCH on a loaded binary. *)
let run_loaded ?(config = default_config) loaded =
  Obs.span "pipeline" @@ fun () ->
  (* 1. FDE starts (+ symbols, normally absent in stripped binaries) *)
  let seeds =
    Obs.span "seeds" @@ fun () ->
    List.iter (fun s -> Prov.decide d_seed_fde ~addr:s []) loaded.Loaded.fde_starts;
    List.iter (fun s -> Prov.decide d_seed_symbol ~addr:s []) loaded.Loaded.symbol_starts;
    seed_set loaded
  in
  let detection = detect config loaded ~seeds in
  (* 4. fix FDE-introduced errors *)
  let invalid, (res, seeds, refs) =
    if config.fix_fde_errors then drop_invalid_fdes config loaded detection
    else ([], detection)
  in
  Obs.add c_seeds_final (List.length seeds);
  (* 4b. Algorithm 1 *)
  let tailcall =
    if config.fix_fde_errors then
      Some (Tailcall.run ~heights:config.alg1_heights ~refs loaded res)
    else None
  in
  let starts =
    match tailcall with
    | Some outcome -> outcome.kept_starts
    | None -> Recursive.starts res
  in
  (* one [verdict.start] per kept start closes every surviving subject's
     chain in the ledger *)
  if Prov.enabled () then
    List.iter (fun s -> Prov.emit ~ev:"verdict.start" ~addr:s []) starts;
  {
    starts;
    final_seeds = seeds;
    rec_result = res;
    tailcall;
    refs;
    invalid_fde_starts = invalid;
    loaded;
  }

(** Run FETCH on an ELF image. *)
let run ?config image = run_loaded ?config (Loaded.load image)

(** Run FETCH on raw ELF bytes. *)
let run_bytes ?config raw =
  Result.map (fun image -> run ?config image) (Fetch_elf.Decode.decode raw)
