(* Integration tests for fetch.core: the FETCH pipeline against generated
   binaries with known ground truth.  These encode the paper's headline
   claims as assertions. *)

open Fetch_synth
open Fetch_core

let check = Alcotest.check

let profile = Profile.make Profile.Synthgcc Profile.O2

let spec =
  {
    Gen.default_spec with
    n_funcs = 50;
    n_asm_called = 2;
    n_asm_tailonly = 1;
    n_asm_pointer = 2;
    n_asm_code_ptr = 1;
    n_asm_unreachable = 1;
    cxx = false;
  }

let built = lazy (Link.build_random ~profile ~seed:2024 spec)

let sort = List.sort_uniq compare

let metrics (truth : Truth.t) detected =
  let truth_starts = sort (Truth.starts truth) in
  let detected = sort detected in
  let fp = List.filter (fun d -> not (List.mem d truth_starts)) detected in
  let fn = List.filter (fun t -> not (List.mem t detected)) truth_starts in
  (fp, fn)

let name_of (truth : Truth.t) addr =
  match Truth.find_by_addr truth addr with
  | Some f -> f.name
  | None -> Printf.sprintf "%#x" addr

(* The paper's harmless miss classes (§IV-E, §V-C): functions reachable by
   nothing, functions reachable only via tail calls, and true tail-call
   targets Algorithm 1 merged into their single caller.  For the merged
   class we verify the harmlessness argument: the function is referenced
   only by jumps (so merging it is equivalent to inlining). *)
(* The paper's residual false-positive class (§V-C): a cold part whose
   function re-bases the CFA on rbp, so Algorithm 1 conservatively skips
   it (2,659 of 34,772 in the paper). *)
let acceptable_residual_fp (r : Pipeline.result) (truth : Truth.t) addr =
  List.mem addr (Truth.part_starts truth)
  && not (Fetch_dwarf.Height_oracle.complete_at r.loaded.oracle addr)

let acceptable_miss (r : Pipeline.result) (truth : Truth.t) addr =
  match Truth.find_by_addr truth addr with
  | None -> false
  | Some f ->
      f.unreachable || f.tail_only
      ||
      let merged =
        match r.tailcall with
        | Some o -> List.mem_assoc addr o.merges
        | None -> false
      in
      merged
      && List.for_all
           (function
             | Refs.Jump_target _ -> true
             | Refs.Data_pointer _ | Refs.Code_constant _ | Refs.Call_target _
               ->
                 false)
           (Refs.refs_to r.refs addr)

let test_fde_only () =
  let b = Lazy.force built in
  let loaded = Fetch_analysis.Loaded.load b.image in
  (* Q1: FDE starts alone cover every compiled function; the misses are
     exactly the assembly functions without FDEs. *)
  let fp, fn = metrics b.truth loaded.fde_starts in
  (* FPs from FDEs: the cold parts (non-contiguous functions) *)
  let parts = sort (Truth.part_starts b.truth) in
  List.iter
    (fun a ->
      if not (List.mem a parts) then
        (* allow the 3-byte-early broken FDEs *)
        if
          not
            (List.exists
               (fun (f : Truth.fn_truth) -> f.start - a = 3)
               b.truth.fns)
        then Alcotest.failf "unexpected FDE FP at %s" (name_of b.truth a))
    fp;
  List.iter
    (fun a ->
      match Truth.find_by_addr b.truth a with
      | Some f when not f.has_fde -> ()
      | Some f -> Alcotest.failf "FDE missed %s which has an FDE" f.name
      | None -> Alcotest.fail "impossible")
    fn

let test_full_pipeline_accuracy () =
  let b = Lazy.force built in
  let r = Pipeline.run b.image in
  let fp, fn = metrics b.truth r.starts in
  (* FETCH: no false positives beyond the documented residual class *)
  List.iter
    (fun a ->
      if not (acceptable_residual_fp r b.truth a) then
        Alcotest.failf "FETCH FP at %s" (name_of b.truth a))
    fp;
  (* The only tolerated misses: unreachable assembly functions (and their
     successors), tail-call-only-reachable functions, and harmless
     Algorithm-1 merges (§IV-E / §V-C). *)
  List.iter
    (fun a ->
      if not (acceptable_miss r b.truth a) then
        Alcotest.failf "FETCH missed %s" (name_of b.truth a))
    fn

let test_pipeline_on_encoded_bytes () =
  let b = Lazy.force built in
  (* run from raw ELF bytes: exercises the decoder path *)
  match Pipeline.run_bytes b.raw with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok r ->
      let r' = Pipeline.run b.image in
      check (Alcotest.list Alcotest.int) "same result from bytes" r'.starts r.starts

let test_algorithm1_removes_cold_fps () =
  let b = Lazy.force built in
  let r = Pipeline.run b.image in
  let outcome = Option.get r.tailcall in
  let parts = sort (Truth.part_starts b.truth) in
  (* every rsp-framed cold part must have been merged away *)
  let merged_addrs = List.map fst outcome.merges in
  let residual =
    List.filter (fun p -> not (List.mem p merged_addrs)) parts
  in
  (* residual cold parts must come from rbp-framed (incomplete CFI) fns *)
  List.iter
    (fun p ->
      if
        Fetch_dwarf.Height_oracle.complete_at r.loaded.oracle p
        && List.mem p r.starts
      then Alcotest.failf "unmerged complete-CFI cold part at %#x" p)
    residual;
  (* merging only ever removes true starts of the harmless class *)
  let truth_starts = Truth.starts b.truth in
  List.iter
    (fun (m, _) ->
      if List.mem m truth_starts && not (acceptable_miss r b.truth m) then
        Alcotest.failf "Algorithm 1 merged true function %s" (name_of b.truth m))
    outcome.merges

let test_tail_calls_detected () =
  let b = Lazy.force built in
  let r = Pipeline.run b.image in
  let outcome = Option.get r.tailcall in
  check Alcotest.bool "some tail calls found" true (outcome.tail_calls <> []);
  (* every detected tail-call target is a true function start *)
  let truth_starts = Truth.starts b.truth in
  List.iter
    (fun (_, t) ->
      if not (List.mem t truth_starts) then
        Alcotest.failf "false tail call target %#x" t)
    outcome.tail_calls

let test_broken_fde_rejected () =
  let spec' = { spec with Gen.n_broken_fde = 1 } in
  let b = Link.build_random ~profile ~seed:31337 spec' in
  let r = Pipeline.run b.image in
  check Alcotest.int "one invalid FDE start" 1 (List.length r.invalid_fde_starts);
  let bad = List.hd r.invalid_fde_starts in
  check Alcotest.bool "rejected start is not a true start" false
    (List.mem bad (Truth.starts b.truth));
  (* and the real entry behind it is recovered (pointer-referenced) *)
  let broken_fn =
    List.find (fun (f : Truth.fn_truth) -> f.start = bad + 3) b.truth.fns
  in
  check Alcotest.bool "real entry recovered" true
    (List.mem broken_fn.start r.starts);
  let fp, _ = metrics b.truth r.starts in
  check (Alcotest.list Alcotest.int) "still no FPs" [] fp

(* The seed-30 draws, under every config that takes the census another
   way: [(name, broken FDEs, config, censuses taken)].  The reseed draw
   re-runs detection, which takes its own census. *)
let census_runs =
  let d = Pipeline.default_config in
  [
    ("direct", 0, d, 1);
    ("reseed", 1, d, 2);
    ("no xref", 0, { d with xref = false }, 1);
    ("no xref, reseed", 1, { d with xref = false }, 2);
    ("no fix", 1, { d with fix_fde_errors = false }, 1);
  ]

let census_run n_broken_fde config =
  let b = Link.build_random ~profile ~seed:30 { spec with Gen.n_broken_fde } in
  Fetch_obs.Trace.with_run (fun () -> Pipeline.run ~config b.image)

(* The census rides on the result, so the linter need not collect it
   again; on the reseed path too it must be exactly the census of
   [rec_result].  Seed 30's reseed changes the census (the pre-reseed one
   differs at a jump target), so a stale one fails here. *)
let test_census_carried () =
  List.iter
    (fun (what, n_broken_fde, config, collects) ->
      let r, _ = census_run n_broken_fde config in
      check Alcotest.bool (what ^ ": path taken") (collects = 2)
        (r.invalid_fde_starts <> []);
      let fresh = Refs.collect r.loaded r.rec_result in
      check (Alcotest.list Alcotest.int) (what ^ ": pointer candidates")
        (Refs.pointer_candidates fresh)
        (Refs.pointer_candidates r.refs);
      let jump_targets =
        Hashtbl.fold
          (fun _ (f : Fetch_analysis.Recursive.func) acc ->
            List.map (fun (_, t) -> t) f.all_jump_sites @ acc)
          r.rec_result.funcs []
      in
      List.iter
        (fun a ->
          if Refs.refs_to r.refs a <> Refs.refs_to fresh a then
            Alcotest.failf "%s: census differs at %#x" what a)
        (r.loaded.fde_starts @ jump_targets))
    census_runs

(* One census per detection: a run takes it once, or twice when it
   reseeds, and the broken-FDE check and the linter never take one. *)
let test_census_taken_once () =
  let module Obs = Fetch_obs.Trace in
  let named name (rep : Obs.report) =
    List.filter (fun (sp : Obs.span) -> sp.name = name) rep.spans
  in
  let inside (outer : Obs.span) (sp : Obs.span) =
    sp.run = outer.run && sp.depth > outer.depth
    && Int64.compare outer.start_ns sp.start_ns <= 0
    && Int64.compare
         (Int64.add sp.start_ns sp.dur_ns)
         (Int64.add outer.start_ns outer.dur_ns)
       <= 0
  in
  List.iter
    (fun (what, n_broken_fde, config, collects) ->
      let r, rep = census_run n_broken_fde config in
      let taken = named "refs.collect" rep in
      check Alcotest.int (what ^ ": censuses taken") collects
        (List.length taken);
      List.iter
        (fun check_span ->
          if List.exists (inside check_span) taken then
            Alcotest.failf "%s: a census taken by the broken-FDE check" what)
        (named "fde_callconv_check" rep);
      let _, rep = Obs.with_run (fun () -> Lint.run r) in
      check Alcotest.int (what ^ ": censuses taken by lint") 0
        (List.length (named "refs.collect" rep)))
    census_runs

let test_xref_finds_pointer_only_functions () =
  let b = Lazy.force built in
  (* without xref, pointer-only asm functions are missed *)
  let no_xref =
    Pipeline.run ~config:{ Pipeline.default_config with xref = false } b.image
  in
  let with_xref = Pipeline.run b.image in
  let ptr_fns =
    List.filter
      (fun (f : Truth.fn_truth) ->
        (not f.has_fde)
        && String.length f.name >= 7
        && String.sub f.name 0 7 = "asm_ptr")
      b.truth.fns
  in
  check Alcotest.bool "test corpus has pointer-only fns" true (ptr_fns <> []);
  List.iter
    (fun (f : Truth.fn_truth) ->
      check Alcotest.bool (f.name ^ " missed without xref") false
        (List.mem f.start no_xref.starts);
      check Alcotest.bool (f.name ^ " found with xref") true
        (List.mem f.start with_xref.starts))
    ptr_fns

let test_jump_tables_followed () =
  let b = Lazy.force built in
  let r = Pipeline.run b.image in
  (* every ground-truth jump table was resolved by some function *)
  let resolved =
    Hashtbl.fold
      (fun _ (f : Fetch_analysis.Recursive.func) acc -> f.table_targets @ acc)
      r.rec_result.funcs []
  in
  List.iter
    (fun (table_addr, targets) ->
      match List.assoc_opt table_addr resolved with
      | Some ts ->
          check (Alcotest.list Alcotest.int) "table targets"
            (sort targets) (sort ts)
      | None -> Alcotest.failf "jump table at %#x unresolved" table_addr)
    b.truth.jump_tables

let test_noreturn_detected () =
  let b = Lazy.force built in
  let r = Pipeline.run b.image in
  let noret = r.rec_result.noreturn in
  List.iter
    (fun (f : Truth.fn_truth) ->
      if f.noreturn && not f.unreachable then
        check Alcotest.bool (f.name ^ " classified noreturn") true
          (Hashtbl.mem noret f.start))
    b.truth.fns;
  (* error_like is conditionally noreturn, not plain noreturn *)
  let err = List.find (fun (f : Truth.fn_truth) -> f.name = "error_like") b.truth.fns in
  check Alcotest.bool "error_like not plain noreturn" false
    (Hashtbl.mem noret err.start);
  check Alcotest.bool "error_like conditionally noreturn" true
    (Hashtbl.mem r.rec_result.cond_noreturn err.start)

(* Run the pipeline across profiles as a smoke property: never a FP against
   truth, misses only in the documented classes. *)
let test_all_profiles_no_fp () =
  List.iter
    (fun compiler ->
      List.iter
        (fun opt ->
          let p = Profile.make compiler opt in
          let b =
            Link.build_random ~profile:p ~seed:(Hashtbl.hash (compiler, opt))
              { spec with Gen.n_funcs = 30 }
          in
          let r = Pipeline.run b.image in
          let fp, fn = metrics b.truth r.starts in
          List.iter
            (fun a ->
              if not (acceptable_residual_fp r b.truth a) then
                Alcotest.failf "%s: FP at %s" (Profile.name p)
                  (name_of b.truth a))
            fp;
          List.iter
            (fun a ->
              if not (acceptable_miss r b.truth a) then
                Alcotest.failf "%s: missed %s" (Profile.name p)
                  (name_of b.truth a))
            fn)
        Profile.all_opts)
    [ Profile.Synthgcc; Profile.Synthllvm ]

(* End-to-end decision ledger: one pipeline run under the provenance
   recorder must leave a complete chain for every verdict — an origin
   event for each seed, an [xref.accept] with its round for each
   accepted pointer, Algorithm 1 rejections with rule ids — and
   [explain] must replay them (this is what `fetch explain` prints). *)
let test_provenance_end_to_end () =
  let module Prov = Fetch_obs.Provenance in
  (* seed 2026: this corpus exercises every chain the ledger must close —
     xref acceptances, Algorithm 1 rejections, merges and tail calls *)
  let b = Link.build_random ~profile ~seed:2026 spec in
  let r, events = Prov.with_run (fun () -> Pipeline.run b.image) in
  check Alcotest.bool "recorder off again" false (Prov.enabled ());
  let of_ev ev = List.filter (fun (e : Prov.event) -> e.Prov.ev = ev) events in
  let has ev addr =
    List.exists (fun (e : Prov.event) -> e.Prov.ev = ev && e.Prov.addr = addr) events
  in
  (* every FDE start has its origin event *)
  List.iter
    (fun s ->
      if not (has "seed.fde" s) then
        Alcotest.failf "FDE start %#x has no seed.fde event" s)
    r.loaded.fde_starts;
  (* every kept start has a verdict event closing its chain *)
  List.iter
    (fun s ->
      if not (has "verdict.start" s) then
        Alcotest.failf "kept start %#x has no verdict.start event" s)
    r.starts;
  (* xref acceptances: present (the corpus has pointer-only functions),
     each carrying the accepting round and landing in the final seeds *)
  let accepts = of_ev "xref.accept" in
  check Alcotest.bool "at least one xref acceptance" true (accepts <> []);
  List.iter
    (fun (e : Prov.event) ->
      (match List.assoc_opt "round" e.Prov.fields with
      | Some (Prov.I k) when k >= 1 -> ()
      | _ -> Alcotest.failf "xref.accept %#x lacks a round >= 1" e.Prov.addr);
      if not (List.mem_assoc "via" e.Prov.fields) then
        Alcotest.failf "xref.accept %#x lacks its via origin" e.Prov.addr;
      if not (List.mem e.Prov.addr r.final_seeds) then
        Alcotest.failf "accepted pointer %#x not in final seeds" e.Prov.addr)
    accepts;
  (* §IV-E rejections carry a reason from the fixed vocabulary *)
  let reject_reasons = [ "invalid_opcode"; "mid_instruction"; "into_function"; "callconv" ] in
  List.iter
    (fun (e : Prov.event) ->
      match List.assoc_opt "reason" e.Prov.fields with
      | Some (Prov.S reason) when List.mem reason reject_reasons -> ()
      | _ -> Alcotest.failf "xref.reject %#x has no known reason" e.Prov.addr)
    (of_ev "xref.reject");
  (* Algorithm 1 rejections are present and name one of the three rules *)
  let alg1_rejects = of_ev "alg1.reject" in
  check Alcotest.bool "at least one Algorithm 1 rejection" true
    (alg1_rejects <> []);
  List.iter
    (fun (e : Prov.event) ->
      (match List.assoc_opt "rule" e.Prov.fields with
      | Some (Prov.S ("cfa_height" | "jump_only_refs" | "callconv")) -> ()
      | _ -> Alcotest.failf "alg1.reject %#x has no known rule" e.Prov.addr);
      if not (List.mem_assoc "site" e.Prov.fields) then
        Alcotest.failf "alg1.reject %#x lacks its jump site" e.Prov.addr)
    alg1_rejects;
  (* a cfa_height rejection carries the offending height operand *)
  (match
     List.find_opt
       (fun (e : Prov.event) ->
         List.assoc_opt "rule" e.Prov.fields = Some (Prov.S "cfa_height"))
       alg1_rejects
   with
  | Some e ->
      check Alcotest.bool "cfa_height carries its height" true
        (match List.assoc_opt "height" e.Prov.fields with
        | Some (Prov.I h) -> h <> 0
        | _ -> false)
  | None -> ());
  (* merged parts chain to their parent and are not kept *)
  (match r.tailcall with
  | None -> ()
  | Some o ->
      List.iter
        (fun (part, parent) ->
          match
            List.find_opt
              (fun (e : Prov.event) ->
                e.Prov.ev = "alg1.merge" && e.Prov.addr = part)
              events
          with
          | None -> Alcotest.failf "merge of %#x left no alg1.merge event" part
          | Some e ->
              check Alcotest.bool "merge names its parent" true
                (List.assoc_opt "parent" e.Prov.fields = Some (Prov.I parent));
              check Alcotest.bool "merged part not kept" false
                (List.mem part r.starts))
        o.merges);
  (* explain replays the three chains `fetch explain` must reproduce *)
  let fde_kept =
    List.find (fun s -> List.mem s r.starts) r.loaded.fde_starts
  in
  let explain addr = Prov.explain ~addr events in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check Alcotest.bool "explain: accepted FDE seed" true
    (let out = explain fde_kept in
     contains out "seed.fde"
     && contains out "verdict: detected function start");
  let accepted = (List.hd accepts).Prov.addr in
  check Alcotest.bool "explain: xref-accepted start shows its round" true
    (let out = explain accepted in
     contains out "xref.accept" && contains out "round=");
  let rejected = (List.hd alg1_rejects).Prov.addr in
  check Alcotest.bool "explain: Algorithm 1 rejection shows its rule" true
    (let out = explain rejected in
     contains out "alg1.reject" && contains out "rule=")

(* ---- incremental xref: bugfix fixtures and the differential property ---- *)

module Obs = Fetch_obs.Trace
module Prov = Fetch_obs.Provenance
module An = Fetch_analysis
module X86 = Fetch_x86
module XI = Fetch_x86.Insn

(* Minimal hand-assembled image: text at 0x1000, optional rodata at
   0x5000 (the same shape as test_analysis, local to keep the xref
   fixtures self-contained). *)
(* An image of [items] at 0x1000, with [rodata] at 0x5000 and one FDE
   (the default CIE's frameless CFI) per [(lo, hi)] label pair. *)
let asm_image ?(rodata = "") ?(fdes = []) items =
  let asm = X86.Asm.assemble ~base:0x1000 items in
  let l = X86.Asm.label_addr asm in
  let open Fetch_elf.Image in
  let sections =
    [
      {
        sec_name = ".text";
        kind = Progbits;
        flags = shf_alloc lor shf_execinstr;
        addr = 0x1000;
        data = asm.code;
        addralign = 16;
        entsize = 0;
      };
    ]
    @ (if rodata = "" then []
       else
         [
           {
             sec_name = ".rodata";
             kind = Progbits;
             flags = shf_alloc;
             addr = 0x5000;
             data = rodata;
             addralign = 8;
             entsize = 0;
           };
         ])
    @
    if fdes = [] then []
    else
      let fdes =
        List.map
          (fun (lo, hi) ->
            Fetch_dwarf.Eh_frame.make_fde ~pc_begin:(l lo)
              ~pc_range:(l hi - l lo) [])
          fdes
      in
      [
        {
          sec_name = ".eh_frame";
          kind = Progbits;
          flags = shf_alloc;
          addr = 0x7000;
          data =
            Fetch_dwarf.Eh_frame.encode ~addr:0x7000
              [ Fetch_dwarf.Eh_frame.default_cie ~fdes () ];
          addralign = 8;
          entsize = 0;
        };
      ]
  in
  ({ entry = 0x1000; sections; symbols = [] }, asm)

let xref_image ?rodata items =
  let image, asm = asm_image ?rodata items in
  (An.Loaded.load image, asm)

let u64s vs =
  let b = Fetch_util.Byte_buf.create () in
  List.iter (fun v -> Fetch_util.Byte_buf.u64 b v) vs;
  Fetch_util.Byte_buf.contents b

let counter (rep : Obs.report) n =
  Option.value ~default:0 (List.assoc_opt n rep.Obs.counters)

(* Regression (error ii was vacuous): a data pointer into the middle of a
   committed instruction must be rejected as [mid_instruction], not fall
   through to the extents check and be misfiled as [into_function]. *)
let test_xref_mid_instruction_reject () =
  let items =
    [
      X86.Asm.Label "a";
      X86.Asm.I (XI.Mov (XI.W64, XI.Reg X86.Reg.Rax, XI.Imm 7));
      X86.Asm.I XI.Ret;
    ]
  in
  (* 0x1001 is strictly inside a's first (multi-byte) instruction *)
  let loaded, _ = xref_image ~rodata:(u64s [ 0x1001 ]) items in
  let (res, seeds', _), rep =
    Obs.with_run (fun () -> Xref.detect loaded ~seeds:[ 0x1000 ])
  in
  check Alcotest.int "one fresh validation" 1
    (counter rep "xref.candidates_scanned");
  check Alcotest.int "rejected as mid_instruction" 1
    (counter rep "xref.reject.mid_instruction");
  check Alcotest.int "not misfiled as into_function" 0
    (counter rep "xref.reject.into_function");
  check Alcotest.int "nothing accepted" 0 (counter rep "xref.accepted");
  check Alcotest.bool "mid-instruction pointer not detected" false
    (List.mem 0x1001 (An.Recursive.starts res));
  check (Alcotest.list Alcotest.int) "seeds unchanged" [ 0x1000 ] seeds'

(* Regression: a pointer to an already-detected entry used to be counted
   as a scanned candidate and a mid_instruction reject every round; it is
   now skipped under its own non-§IV-E counter. *)
let test_xref_known_entry_accounting () =
  let items = [ X86.Asm.Label "a"; X86.Asm.I XI.Ret ] in
  let loaded, _ = xref_image ~rodata:(u64s [ 0x1000 ]) items in
  let (res, _, _), rep =
    Obs.with_run (fun () -> Xref.detect loaded ~seeds:[ 0x1000 ])
  in
  check Alcotest.int "known entry skipped, not validated" 1
    (counter rep "xref.known_entries_skipped");
  check Alcotest.int "no fresh validations" 0
    (counter rep "xref.candidates_scanned");
  check Alcotest.int "no mid_instruction inflation" 0
    (counter rep "xref.reject.mid_instruction");
  check (Alcotest.list Alcotest.int) "a detected exactly once" [ 0x1000 ]
    (An.Recursive.starts res)

(* Regression: the round budget used to exhaust silently; now it is
   announced by a counter and a ledger event carrying the pending count —
   and the reference model agrees on the truncated outcome. *)
let test_xref_budget_exhaustion () =
  let items =
    [
      X86.Asm.Label "a";
      X86.Asm.I XI.Ret;
      X86.Asm.Align 16;
      X86.Asm.Label "g1";
      X86.Asm.I XI.Ret;
      X86.Asm.Align 16;
      X86.Asm.Label "g2";
      X86.Asm.I XI.Ret;
    ]
  in
  let _, asm0 = xref_image items in
  let l = X86.Asm.label_addr asm0 in
  let loaded, _ = xref_image ~rodata:(u64s [ l "g1"; l "g2" ]) items in
  let run max_rounds =
    Obs.with_run (fun () ->
        Prov.with_run (fun () ->
            Xref.detect ~max_rounds loaded ~seeds:[ l "a" ]))
  in
  let ((res, _, _), events), rep = run 1 in
  check Alcotest.int "one pointer accepted before the budget" 1
    (counter rep "xref.accepted");
  check Alcotest.int "exhaustion counted" 1
    (counter rep "xref.budget_exhausted");
  check Alcotest.bool "g2 left undetected by the truncated run" false
    (List.mem (l "g2") (An.Recursive.starts res));
  (match
     List.find_opt
       (fun (e : Prov.event) -> e.Prov.ev = "xref.budget_exhausted")
       events
   with
  | None -> Alcotest.fail "no xref.budget_exhausted ledger event"
  | Some e ->
      check Alcotest.bool "event names the pending candidate" true
        (e.Prov.addr = l "g2");
      check Alcotest.bool "event carries the pending count" true
        (List.assoc_opt "pending" e.Prov.fields = Some (Prov.I 1)));
  (* the reference model reaches the identical truncated outcome *)
  let res_r, _, _ = Reference.xref ~max_rounds:1 loaded ~seeds:[ l "a" ] in
  check Alcotest.bool "reference agrees when truncated" true
    (An.Recursive.starts res = An.Recursive.starts res_r);
  (* with the default budget both pointers land and nothing is pending *)
  let ((res_full, _, _), _), rep_full = run 64 in
  check Alcotest.int "full run accepts both" 2 (counter rep_full "xref.accepted");
  check Alcotest.int "full run exhausts nothing" 0
    (counter rep_full "xref.budget_exhausted");
  check Alcotest.bool "g2 detected with the full budget" true
    (List.mem (l "g2") (An.Recursive.starts res_full))

(* A round costs its delta, not the detection state: [k] seed functions
   sit below [n] pointer-only ones, and the data points at all of them.
   Each round accepts the lowest pointer-only function, so a scan that
   met every settled candidate again would re-skip the [k] known entries
   in each of the [n + 1] rounds.  The pending set meets each once. *)
let test_xref_rounds_linear () =
  let k = 8 and n = 40 in
  let fn prefix i =
    [ X86.Asm.Align 16; X86.Asm.Label (Printf.sprintf "%s%d" prefix i); X86.Asm.I XI.Ret ]
  in
  let items =
    List.concat (List.init k (fn "s") @ List.init n (fn "p"))
  in
  let _, asm0 = xref_image items in
  let l = X86.Asm.label_addr asm0 in
  let known = List.init k (fun i -> l (Printf.sprintf "s%d" i))
  and ptrs = List.init n (fun i -> l (Printf.sprintf "p%d" i)) in
  let loaded, _ = xref_image ~rodata:(u64s (known @ ptrs)) items in
  (* unsorted, with a duplicate: the returned seeds are sorted once *)
  let seeds = List.rev known @ [ List.hd known ] in
  let (res, seeds', _), rep =
    Obs.with_run (fun () -> Xref.detect loaded ~seeds)
  in
  check Alcotest.int "one round per pointer, plus the empty one" (n + 1)
    (counter rep "xref.rounds");
  check Alcotest.int "each pointer validated once" n
    (counter rep "xref.candidates_scanned");
  check Alcotest.int "each known entry met once" k
    (counter rep "xref.known_entries_skipped");
  check (Alcotest.list Alcotest.int) "seeds ascending and deduplicated"
    (known @ ptrs) seeds';
  check (Alcotest.list Alcotest.int) "every function detected" (known @ ptrs)
    (An.Recursive.starts res)

(* Regression: a decode-table inconsistency mid-span used to abandon the
   rest of the span scan silently; now it resyncs and counts. *)
let test_refs_scan_resync () =
  let items =
    [
      X86.Asm.Label "a";
      X86.Asm.I (XI.Mov (XI.W64, XI.Reg X86.Reg.Rax, XI.Imm 7));
      X86.Asm.I XI.Ret;
    ]
  in
  let loaded, _ = xref_image items in
  let res = An.Recursive.run loaded ~seeds:[ 0x1000 ] in
  let _, rep = Obs.with_run (fun () -> Refs.collect loaded res) in
  check Alcotest.int "clean scan needs no resync" 0
    (counter rep "refs.scan_resync");
  (* poison the decode table under a committed span: a table whose
     decode finds no instruction at 0x1000 *)
  let poisoned =
    {
      loaded with
      An.Loaded.table =
        X86.Insn_table.create
          ~decode:(fun a ->
            if a = 0x1000 then None else An.Loaded.insn_at loaded a)
          (An.Loaded.text_ranges loaded);
    }
  in
  let _, rep = Obs.with_run (fun () -> Refs.collect poisoned res) in
  check Alcotest.bool "poisoned decode resyncs and counts" true
    (counter rep "refs.scan_resync" >= 1)

(* Regression: extent overlap attribution used to follow hash iteration
   order; the ledger's [into] is the highest entry whose blocks hold the
   byte, a function of the result alone, independent of insertion
   order.  The fabricated result commits its blocks through
   [insn_spans] in table order, as the engine does, so the code bits
   error (iii) reads are order independent too. *)
let test_xref_extents_deterministic () =
  let mk entry blocks : An.Recursive.func =
    {
      entry;
      blocks;
      calls = [];
      out_jumps = [];
      all_jump_sites = [];
      table_targets = [];
      unresolved_indirect_jump = false;
      has_ret = true;
      decode_error = false;
    }
  in
  (* 0x60 bytes of text at 0x1000 hold every probe *)
  let loaded, _ = xref_image [ X86.Asm.Raw (String.make 0x60 '\xcc') ] in
  let result_of fns : An.Recursive.result =
    let funcs = Hashtbl.create 8 in
    let insn_spans = Fetch_util.Insn_index.create (An.Loaded.text_ranges loaded) in
    let rec commit a hi =
      if a < hi then
        match An.Loaded.insn_at loaded a with
        | Some (_, len) ->
            ignore (Fetch_util.Insn_index.add insn_spans ~lo:a ~hi:(a + len));
            commit (a + len) hi
        | None -> ()
    in
    List.iter
      (fun (f : An.Recursive.func) ->
        Hashtbl.replace funcs f.entry f;
        List.iter (fun (lo, hi) -> commit lo hi) f.blocks)
      fns;
    { funcs; noreturn = Hashtbl.create 1; cond_noreturn = Hashtbl.create 1; insn_spans }
  in
  let f1 = mk 0x1000 [ (0x1000, 0x1020) ]
  and f2 = mk 0x1010 [ (0x1010, 0x1030) ]
  and f3 = mk 0x1040 [ (0x1040, 0x1050) ] in
  let probes = [ 0x1005; 0x1015; 0x1025; 0x1045 ] in
  let owners fns =
    let res = result_of fns in
    fst
    @@ Prov.with_run (fun () ->
           List.map
             (fun cand ->
               match Xref.validate loaded res cand with
               | Xref.Rejected { reason = Xref.Transfer_into_function; fields; _ } ->
                   List.assoc_opt "into" fields
               | Xref.Accept | Xref.Rejected _ -> None)
             probes)
  in
  let o1 = owners [ f1; f2; f3 ] and o2 = owners [ f3; f2; f1 ] in
  check Alcotest.bool "extents independent of table order" true (o1 = o2);
  (* shared bytes go to the highest entry, unshared bytes keep their
     only owner *)
  check Alcotest.bool "overlap attribution is canonical" true
    (o1 = List.map (fun e -> Some (Prov.I e)) [ 0x1000; 0x1010; 0x1010; 0x1040 ])

(* Each commit's delta is exactly what the result gained, and the code
   bits of the instruction table, which error (iii) reads, are the bytes
   of the committed functions' blocks after every commit — so
   [Xref.detect] keeps no extent set of its own. *)
let test_xref_in_code () =
  let b = Lazy.force built in
  let loaded = An.Loaded.load (Fetch_elf.Image.strip b.image) in
  let seeds = loaded.An.Loaded.fde_starts in
  let snapshot (res : An.Recursive.result) =
    (An.Recursive.starts res, Fetch_util.Insn_index.to_list res.insn_spans)
  in
  (* the first text byte where the code bits and the blocks disagree *)
  let code_mismatch (res : An.Recursive.result) =
    let blocks = Hashtbl.create 1024 in
    Hashtbl.iter
      (fun _ (f : An.Recursive.func) ->
        List.iter
          (fun (lo, hi) ->
            for a = lo to hi - 1 do
              Hashtbl.replace blocks a ()
            done)
          f.blocks)
      res.funcs;
    List.find_map
      (fun (lo, hi) ->
        List.find_opt
          (fun a -> Fetch_util.Insn_index.in_code res.insn_spans a <> Hashtbl.mem blocks a)
          (List.init (hi - lo) (fun i -> lo + i)))
      (An.Loaded.text_ranges loaded)
  in
  let start = An.Recursive.run loaded ~seeds in
  (match code_mismatch start with
  | Some a -> Alcotest.failf "seed run: code bit at %#x disagrees with the blocks" a
  | None -> ());
  let prev = ref (snapshot start) in
  let commits = ref 0 in
  let gained now was = List.filter (fun x -> not (List.mem x was)) now in
  let _res, _seeds, _refs =
    Xref.detect loaded ~seeds ~on_commit:(fun ~cand:_ res d ->
        incr commits;
        let starts, spans = snapshot res in
        let starts0, spans0 = !prev in
        let entries =
          List.map (fun (f : An.Recursive.func) -> f.entry) d.new_funcs
        in
        if List.sort compare entries <> gained starts starts0 then
          Alcotest.failf "commit %d: delta functions differ from the gain" !commits;
        if List.sort compare d.new_spans <> gained spans spans0 then
          Alcotest.failf "commit %d: delta spans differ from the gain" !commits;
        prev := (starts, spans);
        match code_mismatch res with
        | Some a ->
            Alcotest.failf "commit %d: code bit at %#x disagrees with the blocks"
              !commits a
        | None -> ())
  in
  check Alcotest.bool "detection committed candidates" true (!commits > 0)

(* The census contract on a chained pointer: [.rodata] points at [p1];
   [p1] holds [p2]'s address as an immediate and calls [q].  [p2] is a
   candidate only once [p1]'s code is folded, so it is accepted in round
   2; [q] is a call target only once [p1]'s function is folded.  After
   every commit, a census grown with [Refs.add_delta] has the candidates
   and, at every label, the refs of [Refs.collect], and [add_delta]
   returned exactly the candidates it added. *)
let test_refs_delta_census () =
  let items =
    [
      X86.Asm.Label "a";
      X86.Asm.I XI.Ret;
      X86.Asm.Align 16;
      X86.Asm.Label "p1";
      X86.Asm.I (XI.Mov (XI.W64, XI.Reg X86.Reg.Rax, XI.Imm 0x1020));
      X86.Asm.Label "p1_call";
      X86.Asm.I (XI.Call (XI.To_label "q"));
      X86.Asm.I XI.Ret;
      X86.Asm.Align 16;
      X86.Asm.Label "p2";
      X86.Asm.I XI.Ret;
      X86.Asm.Align 16;
      X86.Asm.Label "q";
      X86.Asm.I XI.Ret;
    ]
  in
  let loaded, asm = xref_image ~rodata:(u64s [ 0x1010 ]) items in
  let l = X86.Asm.label_addr asm in
  check Alcotest.(list int) "fixture layout" [ 0x1010; 0x1020 ] [ l "p1"; l "p2" ];
  let seeds = [ l "a" ] in
  let census = Refs.collect loaded (An.Recursive.run loaded ~seeds) in
  let sorted_refs t a = List.sort compare (Refs.refs_to t a) in
  let commits = ref 0 in
  let (res, _, _), events =
    Prov.with_run (fun () ->
        Xref.detect loaded ~seeds ~on_commit:(fun ~cand:_ res d ->
            incr commits;
            let before = Refs.pointer_candidates census in
            let fresh = Refs.add_delta loaded census d in
            let whole = Refs.collect loaded res in
            if Refs.pointer_candidates census <> Refs.pointer_candidates whole
            then Alcotest.failf "commit %d: candidates differ" !commits;
            if
              List.sort compare fresh
              <> List.filter
                   (fun c -> not (List.mem c before))
                   (Refs.pointer_candidates whole)
            then Alcotest.failf "commit %d: fresh candidates differ" !commits;
            List.iter
              (fun name ->
                if sorted_refs census (l name) <> sorted_refs whole (l name) then
                  Alcotest.failf "commit %d: refs to %s differ" !commits name)
              [ "a"; "p1"; "p2"; "q" ]))
  in
  let accepted_in name =
    List.filter_map
      (fun (e : Prov.event) ->
        if e.Prov.ev = "xref.accept" && e.Prov.addr = l name then
          List.assoc_opt "round" e.Prov.fields
        else None)
      events
  in
  check Alcotest.bool "p1 accepted in round 1" true (accepted_in "p1" = [ Prov.I 1 ]);
  check Alcotest.bool "p2 accepted in round 2" true (accepted_in "p2" = [ Prov.I 2 ]);
  check Alcotest.int "two commits" 2 !commits;
  check Alcotest.bool "q is called by p1" true
    (List.mem (Refs.Call_target (l "p1_call")) (Refs.refs_to census (l "q")));
  check (Alcotest.list Alcotest.int) "all four detected"
    [ l "a"; l "p1"; l "p2"; l "q" ] (An.Recursive.starts res)

(* Does [Xref.detect] reach the reference model's result? *)
let xref_agrees_with_reference loaded ~seeds =
  let (res_i, seeds_i, refs_i), rep_i =
    Obs.with_run (fun () -> Xref.detect loaded ~seeds)
  in
  let res_r, seeds_r, accepted_r = Reference.xref loaded ~seeds in
  seeds_i = seeds_r
  && Reference.signature res_i = Reference.signature res_r
  && counter rep_i "xref.accepted" = accepted_r
  && Refs.pointer_candidates refs_i
     = Refs.pointer_candidates (Refs.collect loaded res_i)

(* A calling-convention rejection is not permanent: [p1] calls [p2] and
   then reads rbx, which is fine only once [p2] is known not to return.
   Round 1 rejects [p1] and accepts [p2]; round 2 learns that [p2] never
   returns and must re-validate [p1].  Random corpora hardly ever flip a
   verdict, so this pins the case the reference model exists to catch: a
   detector that retired [p1] on its rejection would stop one pointer
   short. *)
let callconv_flip_image () =
  let items =
    [
      X86.Asm.Label "a";
      X86.Asm.I XI.Ret;
      X86.Asm.Align 16;
      X86.Asm.Label "p1";
      X86.Asm.I (XI.Call (XI.To_label "p2"));
      X86.Asm.I (XI.Mov (XI.W64, XI.Reg X86.Reg.Rax, XI.Reg X86.Reg.Rbx));
      X86.Asm.I XI.Ret;
      X86.Asm.Align 16;
      X86.Asm.Label "p2";
      X86.Asm.I XI.Hlt;
    ]
  in
  let _, asm0 = xref_image items in
  let l = X86.Asm.label_addr asm0 in
  (fst (xref_image ~rodata:(u64s [ l "p1"; l "p2" ]) items), l)

let test_xref_callconv_reject_flips () =
  let loaded, l = callconv_flip_image () in
  let seeds = [ l "a" ] in
  let ((res, _, _), events), rep =
    Obs.with_run (fun () ->
        Prov.with_run (fun () -> Xref.detect loaded ~seeds))
  in
  let rounds ev =
    List.filter_map
      (fun (e : Prov.event) ->
        if e.Prov.ev = ev && e.Prov.addr = l "p1" then
          List.assoc_opt "round" e.Prov.fields
        else None)
      events
  in
  check Alcotest.bool "p1 rejected for callconv in round 1" true
    (rounds "xref.reject" = [ Prov.I 1 ]
    && counter rep "xref.reject.callconv" = 1);
  check Alcotest.bool "p1 accepted in round 2" true
    (rounds "xref.accept" = [ Prov.I 2 ]);
  check (Alcotest.list Alcotest.int) "both pointers detected"
    [ l "a"; l "p1"; l "p2" ] (An.Recursive.starts res);
  check Alcotest.bool "incremental == reference" true
    (xref_agrees_with_reference loaded ~seeds)

(* Algorithm 1's callconv rule: [a] calls [t], then tail-jumps to it at
   CFA height 0, and [t] reads rbx before writing it.  The call keeps [t]
   from being a jump-only part, so the callconv rule is the one that
   rejects the tail call; the call from [m] keeps Fig. 6b from dropping
   [a], whose walk follows the jump into [t].  Synth code keeps the ABI,
   so no synth draw reaches this rule. *)
let alg1_callconv_image () =
  asm_image
    ~fdes:[ ("m", "m_end"); ("a", "a_end"); ("t", "t_end") ]
    [
      X86.Asm.Label "m";
      X86.Asm.I (XI.Call (XI.To_label "a"));
      X86.Asm.I XI.Ret;
      X86.Asm.Label "m_end";
      X86.Asm.Align 16;
      X86.Asm.Label "a";
      X86.Asm.I (XI.Call (XI.To_label "t"));
      X86.Asm.I (XI.Jmp (XI.To_label "t"));
      X86.Asm.Label "a_end";
      X86.Asm.Align 16;
      X86.Asm.Label "t";
      X86.Asm.I (XI.Mov (XI.W64, XI.Reg X86.Reg.Rax, XI.Reg X86.Reg.Rbx));
      X86.Asm.I XI.Ret;
      X86.Asm.Label "t_end";
    ]

(* Each callconv rejection site records the violation of its own walk:
   §IV-E's [xref.reject], Fig. 6b's [fde.invalid] and Algorithm 1's
   [alg1.reject].  The synth draw below trips [fde.invalid]; synth code
   hardly ever trips the other two, so they use the hand-built images
   above (for xref, round 1 knows no noreturn callee). *)
let test_callconv_ledger_evidence () =
  let expect what ?(res : An.Recursive.result option) loaded
      (e : Prov.event) =
    let res =
      match res with
      | Some res -> res
      | None -> An.Recursive.run loaded ~seeds:[]
    in
    match An.Callconv.validate loaded res e.Prov.addr with
    | Ok () -> Alcotest.failf "%s %#x: the address passes" what e.Prov.addr
    | Error v ->
        List.iter
          (fun (k, x) ->
            if List.assoc_opt k e.Prov.fields <> Some x then
              Alcotest.failf "%s %#x: %s differs from the violation" what
                e.Prov.addr k)
          (An.Callconv.ledger_fields v)
  in
  let with_rule ev rule events =
    List.filter
      (fun (e : Prov.event) ->
        e.Prov.ev = ev && List.mem rule e.Prov.fields)
      events
  in
  let loaded, l = callconv_flip_image () in
  let _, events = Prov.with_run (fun () -> Xref.detect loaded ~seeds:[ l "a" ]) in
  (match with_rule "xref.reject" ("reason", Prov.S "callconv") events with
  | [ e ] ->
      expect "xref.reject" loaded e;
      check Alcotest.bool "xref.reject names rbx" true
        (List.assoc_opt "viol_reg" e.Prov.fields = Some (Prov.S "rbx"))
  | _ -> Alcotest.fail "expected one xref.reject for callconv");
  let pipeline_events image ev rule =
    let r, events = Prov.with_run (fun () -> Pipeline.run image) in
    match with_rule ev rule events with
    | [] -> Alcotest.failf "no %s event on the image" ev
    | es ->
        List.iter (expect ev ~res:r.rec_result r.loaded) es;
        es
  in
  let b = Link.build_random ~profile ~seed:30 { spec with Gen.n_broken_fde = 1 } in
  ignore
    (pipeline_events b.image "fde.invalid"
       ("why", Prov.S "unreferenced_callconv_violation"));
  let image, asm = alg1_callconv_image () in
  match pipeline_events image "alg1.reject" ("rule", Prov.S "callconv") with
  | [ e ] ->
      check Alcotest.int "alg1.reject is about t"
        (X86.Asm.label_addr asm "t") e.Prov.addr;
      check Alcotest.bool "alg1.reject names rbx" true
        (List.assoc_opt "viol_reg" e.Prov.fields = Some (Prov.S "rbx"))
  | _ -> Alcotest.fail "expected one alg1.reject for callconv"

let gen_noreturn_draw =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* compiler = oneofl [ Profile.Synthgcc; Profile.Synthllvm ] in
    let* n_funcs = int_range 10 40 in
    let* pointer = int_bound 3 in
    let* code_ptr = int_bound 2 in
    let* drop = int_bound 3 in
    return (seed, compiler, n_funcs, pointer, code_ptr, drop))

let print_noreturn_draw (seed, c, n, p, cp, d) =
  Printf.sprintf "seed=%d %s n=%d ptr=%d codeptr=%d drop=%d" seed
    (Profile.compiler_name c) n p cp d

let load_noreturn_draw (seed, compiler, n_funcs, pointer, code_ptr, drop) =
  Reference.draw ~seed compiler ~n_funcs ~pointer ~code_ptr ~drop

(* [Xref.detect] and the from-scratch reference model are
   indistinguishable — same final seeds, same starts, same spans, same
   noreturn facts, as many accepted pointers — over random corpora.  The
   reference retires no candidate, so this also holds every retired
   candidate to be one whose verdict cannot flip. *)
let prop_xref_reference =
  QCheck.Test.make ~name:"xref: incremental == reference" ~count:10
    (QCheck.make gen_noreturn_draw ~print:print_noreturn_draw)
    (fun draw ->
      let loaded, seeds = load_noreturn_draw draw in
      xref_agrees_with_reference loaded ~seeds)

(* The two draws on which the property above used to fail (about once in
   18,000): every [Recursive.extend] of a §IV-E round had its own budget
   of five noreturn re-walks, so the chain of rounds learned facts that
   the reference's single budgeted run cut off.  Both now converge to the
   same facts. *)
let test_xref_reference_pinned () =
  List.iter
    (fun (draw, noreturn) ->
      let loaded, seeds = load_noreturn_draw draw in
      let case = print_noreturn_draw draw in
      check Alcotest.bool (case ^ ": incremental == reference") true
        (xref_agrees_with_reference loaded ~seeds);
      let res, _, _ = Xref.detect loaded ~seeds in
      List.iter
        (fun e ->
          check Alcotest.bool (Printf.sprintf "%s: %#x noreturn" case e) true
            (Hashtbl.mem res.An.Recursive.noreturn e))
        noreturn)
    Profile.
      [
        ((413218, Synthllvm, 39, 2, 1, 0), [ 0x401210; 0x4017e9 ]);
        ((222607, Synthllvm, 31, 3, 0, 3), [ 0x401350 ]);
      ]

(* [run] on all seeds reaches what [run] on a prefix of them followed by
   [extend] with the rest reaches, and both equal the reference
   fixpoint: one answer whatever the order seeds arrive in.  A later FDE
   seed can lie inside the prefix run's instructions (a cold part with
   an FDE of its own that a hot part jumps into), which breaks
   [extend]'s precondition: [extend] must then refuse it. *)
let prop_run_extend_reference =
  QCheck.Test.make ~name:"recursive: run == run prefix + extend rest == reference"
    ~count:10
    (QCheck.make
       QCheck.Gen.(pair gen_noreturn_draw (float_bound_inclusive 1.0))
       ~print:(fun (d, r) -> Printf.sprintf "%s split=%.3f" (print_noreturn_draw d) r))
    (fun (draw, ratio) ->
      let loaded, seeds = load_noreturn_draw draw in
      let k = int_of_float (ratio *. float_of_int (List.length seeds)) in
      Result.is_ok (Reference.run_then_extend loaded ~seeds k)
      && Reference.signature (An.Recursive.run loaded ~seeds)
         = Reference.signature (Reference.recursive loaded ~seeds))

let suite =
  [
    Alcotest.test_case "FDE-only coverage (Q1)" `Quick test_fde_only;
    Alcotest.test_case "xref: mid-instruction pointer rejected" `Quick test_xref_mid_instruction_reject;
    Alcotest.test_case "xref: known entries skipped in accounting" `Quick test_xref_known_entry_accounting;
    Alcotest.test_case "xref: budget exhaustion announced" `Quick test_xref_budget_exhaustion;
    Alcotest.test_case "refs: span scan resyncs on bad decode" `Quick test_refs_scan_resync;
    Alcotest.test_case "xref: extents attribution deterministic" `Quick test_xref_extents_deterministic;
    Alcotest.test_case "xref: in_code == committed blocks" `Quick test_xref_in_code;
    Alcotest.test_case "provenance ledger end-to-end" `Quick test_provenance_end_to_end;
    Alcotest.test_case "full pipeline accuracy" `Quick test_full_pipeline_accuracy;
    Alcotest.test_case "pipeline from raw bytes" `Quick test_pipeline_on_encoded_bytes;
    Alcotest.test_case "Algorithm 1 merges cold parts" `Quick test_algorithm1_removes_cold_fps;
    Alcotest.test_case "tail calls detected safely" `Quick test_tail_calls_detected;
    Alcotest.test_case "broken FDE rejected and recovered" `Quick test_broken_fde_rejected;
    Alcotest.test_case "pipeline carries Algorithm 1's census" `Quick test_census_carried;
    Alcotest.test_case "one census per detection" `Quick test_census_taken_once;
    Alcotest.test_case "xref finds pointer-only functions" `Quick test_xref_finds_pointer_only_functions;
    Alcotest.test_case "jump tables followed" `Quick test_jump_tables_followed;
    Alcotest.test_case "noreturn analysis" `Quick test_noreturn_detected;
    Alcotest.test_case "all profiles: no FPs" `Slow test_all_profiles_no_fp;
    Alcotest.test_case "xref: callconv rejection re-validated" `Quick
      test_xref_callconv_reject_flips;
    Alcotest.test_case "ledger: callconv evidence at all sites" `Quick
      test_callconv_ledger_evidence;
  ]

(* One draw of the property below: the binary and FETCH's result on it. *)
let run_draw (seed, compiler, opt, n_funcs, cxx, tailonly, pointer, unreachable)
    =
  let b =
    Link.build_random ~profile:(Profile.make compiler opt) ~seed
      {
        Gen.default_spec with
        n_funcs;
        cxx;
        n_asm_tailonly = tailonly;
        n_asm_pointer = pointer;
        n_asm_unreachable = unreachable;
      }
  in
  (b, Pipeline.run b.image)

(* Property: on arbitrary generator configurations, FETCH never reports a
   false positive and never misses a function outside the documented
   harmless classes. *)
let gen_fetch_draw =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* compiler = oneofl [ Profile.Synthgcc; Profile.Synthllvm ] in
    let* opt = oneofl Profile.all_opts in
    let* n_funcs = int_range 10 70 in
    let* cxx = bool in
    let* tailonly = int_bound 2 in
    let* pointer = int_bound 2 in
    let* unreachable = int_bound 1 in
    return (seed, compiler, opt, n_funcs, cxx, tailonly, pointer, unreachable))

let print_fetch_draw (seed, c, o, n, cxx, t, p, u) =
  Printf.sprintf "seed=%d %s-%s n=%d cxx=%b t=%d p=%d u=%d" seed
    (Profile.compiler_name c) (Profile.opt_name o) n cxx t p u

let prop_fetch_invariants =
  QCheck.Test.make ~name:"FETCH invariants on random corpora" ~count:12
    (QCheck.make gen_fetch_draw ~print:print_fetch_draw)
    (fun draw ->
      let b, r = run_draw draw in
      let fp, fn = metrics b.truth r.starts in
      List.for_all (acceptable_residual_fp r b.truth) fp
      && List.for_all (acceptable_miss r b.truth) fn)

(* Draws on which the property above used to fail, each on a generator
   fault that left ground truth FETCH could not meet:
   - the first five each missed a compiler function with a correct FDE
     and no reference.  [Codegen] kept a value in r10/r11 across a call
     in a loop body, so the back edge read a clobbered register and the
     Fig. 6b check rightly dropped the function (see "callconv: r11
     across a loop's call is clobbered");
   - the last missed [__clang_call_terminate]: [Gen] gave its only call
     to an entry-jump function, whose fixed body drops it.
   Pin that these draws now hold the invariants with no exception. *)
let fetch_residual_draws =
  Profile.
    [
      (203756, Synthllvm, Ofast, 70, false, 2, 1, 0);
      (569195, Synthllvm, O2, 38, false, 2, 0, 1);
      (552791, Synthllvm, O2, 56, false, 1, 0, 0);
      (397847, Synthllvm, Ofast, 69, true, 0, 2, 0);
      (816198, Synthgcc, O3, 24, false, 1, 1, 1);
      (328031, Synthllvm, Ofast, 59, true, 0, 1, 0);
    ]

let test_fetch_invariants_residual () =
  List.iter
    (fun ((seed, _, _, _, _, _, _, _) as draw) ->
      let case = Printf.sprintf "seed=%d" seed in
      let b, r = run_draw draw in
      let fp, fn = metrics b.truth r.starts in
      check (Alcotest.list Alcotest.int) (case ^ ": no false positive") []
        (List.filter (fun a -> not (acceptable_residual_fp r b.truth a)) fp);
      check (Alcotest.list Alcotest.string) (case ^ ": no miss") []
        (List.filter_map
           (fun a ->
             if acceptable_miss r b.truth a then None
             else Some (name_of b.truth a))
           fn))
    fetch_residual_draws

(* Draws on which the engine's answer once depended on the order seeds
   arrived in, while it kept a breadth-first registration order: the
   first three on [run] against [run] on a prefix (of the length given)
   followed by [extend], the last on [Xref.detect] against its
   reference.  Each now holds, and permuting the seeds changes nothing.
   On the second, a later seed lies inside the prefix run's
   instructions, so [extend] refuses it. *)
let test_order_free_pinned () =
  List.iter
    (fun (draw, split) ->
      let loaded, seeds = load_noreturn_draw draw in
      let case = print_noreturn_draw draw in
      check Alcotest.bool (case ^ ": == reference") true
        (Reference.signature (An.Recursive.run loaded ~seeds)
        = Reference.signature (Reference.recursive loaded ~seeds));
      check Alcotest.bool (case ^ ": seed order changes nothing") true
        (Reference.order_free loaded ~seeds);
      match split with
      | Some (k, refused) ->
          check Alcotest.bool
            (Printf.sprintf "%s: run on %d seeds + extend (refused: %b)" case k
               refused)
            true
            (Reference.run_then_extend loaded ~seeds k = Ok refused)
      | None ->
          check Alcotest.bool (case ^ ": xref incremental == reference") true
            (xref_agrees_with_reference loaded ~seeds))
    Profile.
      [
        ((367416, Synthgcc, 33, 1, 1, 0), Some (21, false));
        ((624637, Synthgcc, 32, 0, 2, 1), Some (14, true));
        ((494070, Synthgcc, 35, 0, 1, 1), Some (16, false));
        ((177919, Synthllvm, 17, 1, 2, 3), None);
      ]

(* [extend]'s precondition, checked: on this draw the FDE seed 0x402186
   is a cold part with an FDE of its own, and the run on the first 7
   seeds already holds it (0x401b40 jumps to it), so [extend] with the
   rest must refuse it rather than grow a result [run] would not give. *)
let test_extend_refuses_committed_seed () =
  let loaded, seeds = load_noreturn_draw (494891, Profile.Synthgcc, 38, 3, 1, 2) in
  let prefix = List.filteri (fun i _ -> i < 7) seeds in
  let res = An.Recursive.run loaded ~seeds:prefix in
  check Alcotest.bool "0x402186 is a later seed" true
    (List.mem 0x402186 seeds && not (List.mem 0x402186 prefix));
  check Alcotest.bool "inside the prefix run's instructions" true
    (Fetch_util.Insn_index.mem res.insn_spans 0x402186
    && not (Hashtbl.mem res.funcs 0x402186));
  check Alcotest.bool "extend refuses the rest" true
    (Reference.run_then_extend loaded ~seeds 7 = Ok true);
  check Alcotest.bool "and refuses the seed alone, changing nothing" true
    (let before = Reference.signature res in
     match An.Recursive.extend loaded res ~seeds:[ 0x402186 ] with
     | exception Invalid_argument _ -> Reference.signature res = before
     | _ -> false)

(* [run] gives the same answer with its seeds reversed, rotated or
   repeated, on synth draws. *)
let prop_order_free =
  QCheck.Test.make ~name:"recursive: seed order changes nothing on synth draws"
    ~count:10
    (QCheck.make gen_noreturn_draw ~print:print_noreturn_draw)
    (fun draw ->
      let loaded, seeds = load_noreturn_draw draw in
      Reference.order_free loaded ~seeds)

(* The cached-block walk is the per-instruction walk of
   [Reference.walk] on synth draws: every body [run] keeps, and every
   walk over the same facts that stops at every entry or only at the
   seeds, safe or not, agrees field for field. *)
let prop_block_walks =
  QCheck.Test.make ~name:"recursive: block walk == instruction walk on synth draws"
    ~count:10
    (QCheck.make gen_noreturn_draw ~print:print_noreturn_draw)
    (fun draw ->
      let loaded, seeds = load_noreturn_draw draw in
      Reference.walks_agree loaded ~seeds)

(* A warm block cache answers like a fresh one.  The cache of a draw is
   warmed by [run] on other seeds (every other seed, reversed), by a run
   on a prefix followed by [extend], and by [Xref.detect]; [run] and
   [Xref.detect] must then give what a fresh load of the image gives. *)
let prop_warm_like_fresh =
  QCheck.Test.make ~name:"recursive: a warm block cache answers like a fresh one"
    ~count:10
    (QCheck.make gen_noreturn_draw ~print:print_noreturn_draw)
    (fun draw ->
      let loaded, seeds = load_noreturn_draw draw in
      ignore
        (An.Recursive.run loaded
           ~seeds:(List.filteri (fun i _ -> i mod 2 = 1) (List.rev seeds)));
      Reference.warm_like_fresh loaded ~seeds:loaded.fde_starts
      && Result.is_ok (Reference.run_then_extend loaded ~seeds (List.length seeds / 2))
      && Reference.warm_like_fresh loaded ~seeds)

(* The pipeline's reseed (the Fig. 6b check drops a broken FDE and
   detection runs again on the same [Loaded.t]) and the pattern tools'
   iterated runs walk a warm cache.  Both answer as on a fresh load, also
   when the cache was warmed by the other first. *)
let test_warm_pipeline_and_tools () =
  let b = Link.build_random ~profile ~seed:30 { spec with Gen.n_broken_fde = 1 } in
  let image = Fetch_elf.Image.strip b.image in
  let answer l =
    let r = Pipeline.run_loaded l in
    (r.invalid_fde_starts <> [], Summary.to_json (Summary.of_result r))
  in
  let tools l =
    let open Fetch_baselines.Pattern_tools in
    [ Dyninst.detect l; Bap.detect l; Radare2.detect l; Ida.detect l; Binja.detect l ]
  in
  let fresh = answer (An.Loaded.load image) and fresh_tools = tools (An.Loaded.load image) in
  check Alcotest.bool "the pipeline reseeds" true (fst fresh);
  let warm = An.Loaded.load image in
  check Alcotest.bool "pipeline, cold" true (answer warm = fresh);
  check Alcotest.bool "pipeline, warm" true (answer warm = fresh);
  check Alcotest.bool "pattern tools after the pipeline" true (tools warm = fresh_tools);
  let warm = An.Loaded.load image in
  check Alcotest.bool "pattern tools, cold" true (tools warm = fresh_tools);
  check Alcotest.bool "pipeline after the pattern tools" true (answer warm = fresh)

(* A seed in the middle of a straight-line block that an earlier walk
   built: [f] runs [nop; nop; g: nop; ret] and [g] is not a start at
   first, so [g]'s bytes lie inside one block of [f].  Seeding [g] as
   well splits that block, and [f]'s body stops there. *)
let test_block_split_at_seed () =
  let img, asm =
    asm_image
      X86.Asm.[ Label "f"; I (XI.Nop 1); I (XI.Nop 1); Label "g"; I (XI.Nop 1); I XI.Ret ]
  in
  let f = X86.Asm.label_addr asm "f" and g = X86.Asm.label_addr asm "g" in
  let loaded = An.Loaded.load img in
  let bt = loaded.blocks in
  let res = An.Recursive.run loaded ~seeds:[ f ] in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "f alone: one run"
    [ (f, g + 2) ] (Hashtbl.find res.funcs f).blocks;
  let kf = Fetch_x86.Block_table.start bt f in
  check Alcotest.int "one block through g" (g + 2) (Fetch_x86.Block_table.hi bt kf);
  let n = Fetch_x86.Block_table.count bt in
  let res = An.Recursive.run loaded ~seeds:[ f; g ] in
  check Alcotest.int "seeding g splits it" (n + 1) (Fetch_x86.Block_table.count bt);
  check Alcotest.int "f's block now ends at g" g (Fetch_x86.Block_table.hi bt kf);
  check Alcotest.bool "and falls into g's" true
    (Fetch_x86.Block_table.kind bt kf = Fetch_x86.Block_table.Fall
    && Fetch_x86.Block_table.lo bt (Fetch_x86.Block_table.start bt g) = g);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "f stops at g"
    [ (f, g) ] (Hashtbl.find res.funcs f).blocks;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "g's body"
    [ (g, g + 2) ] (Hashtbl.find res.funcs g).blocks;
  check Alcotest.bool "== the instruction walk, warm and fresh" true
    (Reference.signature res = Reference.signature (Reference.recursive loaded ~seeds:[ f; g ])
    && Reference.walks_agree loaded ~seeds:[ f; g ]
    && Reference.warm_like_fresh loaded ~seeds:[ f; g ])

(* §IV-E check (ii) across the whole instruction: on these draws a
   pointer's walk decoded an instruction that overlapped committed
   instructions at another alignment ([mov rdi, rdi] at 0x401040 over an
   accepted [mov edi, edi] at 0x401041 on the first), and the rounds kept
   the other span than a from-scratch run.  Such a walk is now rejected
   as running into the middle of committed code. *)
let test_xref_overlap_pinned () =
  List.iter
    (fun draw ->
      let loaded, seeds = load_noreturn_draw draw in
      check Alcotest.bool (print_noreturn_draw draw ^ ": incremental == reference") true
        (xref_agrees_with_reference loaded ~seeds))
    Profile.[ (627836, Synthllvm, 25, 2, 1, 3); (953042, Synthllvm, 13, 1, 1, 2) ]

(* The first argument is carried across a block boundary: [f] zeroes rdi
   and calls the [error]-style [err], and [g] jumps between the two, so
   the [mov] and the [call] lie in two blocks of [f]'s run.  The call
   returns (its argument is zero), so [f] reaches its [ret]; an argument
   reset at the boundary would make [f] noreturn. *)
let test_block_first_arg_carried () =
  let open X86.Asm in
  let img, asm =
    asm_image
      [
        Label "g";
        I (XI.Jmp (XI.To_label "l"));
        Label "f";
        I (XI.Mov (XI.W64, XI.Reg X86.Reg.Rdi, XI.Imm 0));
        Label "l";
        I (XI.Call (XI.To_label "err"));
        I XI.Ret;
        Label "err";
        I (XI.Test (XI.W64, X86.Reg.Rdi, X86.Reg.Rdi));
        I (XI.Jcc (XI.E, XI.To_label "ok"));
        I XI.Hlt;
        Label "ok";
        I XI.Ret;
      ]
  in
  let l = label_addr asm in
  let seeds = [ l "g"; l "f"; l "err" ] in
  let loaded = An.Loaded.load img in
  let res = An.Recursive.run loaded ~seeds in
  check Alcotest.bool "err is error-style" true (Hashtbl.mem res.cond_noreturn (l "err"));
  check Alcotest.bool "f returns" true
    ((Hashtbl.find res.funcs (l "f")).has_ret && not (Hashtbl.mem res.noreturn (l "f")));
  check Alcotest.bool "l starts a block" true
    (Fetch_x86.Block_table.lo loaded.blocks (Fetch_x86.Block_table.start loaded.blocks (l "l")) = l "l");
  check Alcotest.bool "== the instruction walk" true
    (Reference.signature res = Reference.signature (Reference.recursive loaded ~seeds)
    && Reference.walks_agree loaded ~seeds)

(* A walk's own callee can split the block under way: [f] calls [g],
   and [g] lies inside the block that runs on from the call to [f]'s
   branch.  Making [g] a block start when the run closes splits that
   block; the branch must still be read as it was, so [f] goes on to
   [l] and finds [h]. *)
let test_block_split_by_callee () =
  let open X86.Asm in
  let img, asm =
    asm_image
      [
        Label "f";
        I (XI.Call (XI.To_label "g"));
        I (XI.Nop 1);
        Label "g";
        I (XI.Nop 1);
        I (XI.Test (XI.W64, X86.Reg.Rax, X86.Reg.Rax));
        I (XI.Jcc (XI.B, XI.To_label "l"));
        I XI.Ret;
        Label "l";
        I (XI.Call (XI.To_label "h"));
        I XI.Ret;
        Label "h";
        I XI.Ret;
      ]
  in
  let l = label_addr asm in
  let seeds = [ l "f" ] in
  let loaded = An.Loaded.load img in
  let res = An.Recursive.run loaded ~seeds in
  check (Alcotest.list Alcotest.int) "f, g and h" [ l "f"; l "g"; l "h" ]
    (An.Recursive.starts res);
  check Alcotest.bool "== the instruction walk" true
    (Reference.walks_agree (An.Loaded.load img) ~seeds)

(* Every dataflow solve behind a pipeline result, and the linter's,
   equals the per-instruction model: §IV-E at each kept start and
   pointer candidate, both stack-height styles from each kept start, and
   the lint report (see [Reference.solves_agree]). *)
let solves_agree (r : Pipeline.result) =
  Reference.solves_agree r.loaded r.rec_result ~starts:r.starts
    ~cands:(Refs.pointer_candidates r.refs) (Fetch_core.Lint.view_of r)

let prop_solves_agree =
  QCheck.Test.make ~name:"dataflow: block solves == per-instruction model" ~count:4
    (QCheck.make gen_fetch_draw ~print:print_fetch_draw)
    (fun draw ->
      match solves_agree (snd (run_draw draw)) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* The same on the pinned draws of "FETCH invariants" and on every
   adversarial scenario. *)
let test_solves_agree_pinned () =
  List.iter
    (fun (case, r) ->
      check (Alcotest.result Alcotest.unit Alcotest.string) case (Ok ())
        (solves_agree (Lazy.force r)))
    (List.map
       (fun ((seed, _, _, _, _, _, _, _) as draw) ->
         (Printf.sprintf "seed=%d" seed, lazy (snd (run_draw draw))))
       fetch_residual_draws
    @ List.map
        (fun sc ->
          ( sc.Adversary.id,
            lazy (Pipeline.run (Adversary.build sc ~seed:2026).image) ))
        Adversary.all)

let suite =
  suite
  @ [
      Alcotest.test_case "FETCH invariants: residual draws pinned" `Quick
        test_fetch_invariants_residual;
      QCheck_alcotest.to_alcotest prop_fetch_invariants;
      QCheck_alcotest.to_alcotest prop_xref_reference;
      Alcotest.test_case "xref: incremental == reference, pinned draws" `Quick
        test_xref_reference_pinned;
      QCheck_alcotest.to_alcotest prop_run_extend_reference;
      Alcotest.test_case "refs: delta census == collect" `Quick
        test_refs_delta_census;
      Alcotest.test_case "xref: rounds are linear in candidates" `Quick
        test_xref_rounds_linear;
      Alcotest.test_case "recursive: order-free on pinned draws" `Quick
        test_order_free_pinned;
      Alcotest.test_case "extend: a seed inside committed code is refused" `Quick
        test_extend_refuses_committed_seed;
      QCheck_alcotest.to_alcotest prop_order_free;
      QCheck_alcotest.to_alcotest prop_block_walks;
      QCheck_alcotest.to_alcotest prop_warm_like_fresh;
      Alcotest.test_case "recursive: warm pipeline reseed and pattern tools" `Quick
        test_warm_pipeline_and_tools;
      Alcotest.test_case "blocks: a seed splits another function's block" `Quick
        test_block_split_at_seed;
      Alcotest.test_case "xref: overlapping walk rejected, pinned draws" `Quick
        test_xref_overlap_pinned;
      Alcotest.test_case "blocks: the first argument crosses a block boundary" `Quick
        test_block_first_arg_carried;
      Alcotest.test_case "blocks: a callee splits the block under way" `Quick
        test_block_split_by_callee;
      QCheck_alcotest.to_alcotest prop_solves_agree;
      Alcotest.test_case "dataflow: block solves == model, pinned and adversarial"
        `Quick test_solves_agree_pinned;
    ]
