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
      &&
      let refs = Refs.collect r.loaded r.rec_result in
      List.for_all
        (function
          | Refs.Jump_target _ -> true
          | Refs.Data_pointer _ | Refs.Code_constant _ | Refs.Call_target _ ->
              false)
        (Refs.refs_to refs addr)

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

(* The census Algorithm 1 ran on rides on the result, so the linter need
   not collect it again; on the reseed path too it must be exactly the
   census of [rec_result].  Seed 30's reseed changes the census (the
   pre-reseed one differs at a jump target), so a stale one fails here. *)
let test_census_carried () =
  List.iter
    (fun (what, n_broken_fde) ->
      let b =
        Link.build_random ~profile ~seed:30 { spec with Gen.n_broken_fde }
      in
      let r = Pipeline.run b.image in
      check Alcotest.bool (what ^ ": path taken") (n_broken_fde > 0)
        (r.invalid_fde_starts <> []);
      match r.refs with
      | None -> Alcotest.failf "%s: no census on a default run" what
      | Some refs ->
          let fresh = Refs.collect r.loaded r.rec_result in
          check (Alcotest.list Alcotest.int) (what ^ ": pointer candidates")
            (Refs.pointer_candidates fresh)
            (Refs.pointer_candidates refs);
          let jump_targets =
            Hashtbl.fold
              (fun _ (f : Fetch_analysis.Recursive.func) acc ->
                List.map (fun (_, _, t) -> t) f.all_jump_sites @ acc)
              r.rec_result.funcs []
          in
          List.iter
            (fun a ->
              if Refs.refs_to refs a <> Refs.refs_to fresh a then
                Alcotest.failf "%s: census differs at %#x" what a)
            (r.fde_starts @ jump_targets))
    [ ("direct", 0); ("reseed", 1) ]

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
    r.fde_starts;
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
    List.find (fun s -> List.mem s r.starts) r.fde_starts
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
let xref_image ?(rodata = "") items =
  let asm = X86.Asm.assemble ~base:0x1000 items in
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
    @
    if rodata = "" then []
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
      ]
  in
  (An.Loaded.load { entry = 0x1000; sections; symbols = [] }, asm)

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
  let (res, seeds'), rep =
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
  let (res, _), rep =
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
   and both strategies agree on the truncated outcome. *)
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
  let run strategy max_rounds =
    Obs.with_run (fun () ->
        Prov.with_run (fun () ->
            Xref.detect ~strategy ~max_rounds loaded ~seeds:[ l "a" ]))
  in
  let ((res, _), events), rep = run Xref.Incremental 1 in
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
  (* the rescan strategy reports the identical truncated outcome *)
  let ((res_r, _), _), rep_r = run Xref.Rescan 1 in
  check Alcotest.bool "strategies agree when truncated" true
    (An.Recursive.starts res = An.Recursive.starts res_r);
  check Alcotest.int "rescan counts the exhaustion too" 1
    (counter rep_r "xref.budget_exhausted");
  (* with the default budget both pointers land and nothing is pending *)
  let ((res_full, _), _), rep_full = run Xref.Incremental 64 in
  check Alcotest.int "full run accepts both" 2 (counter rep_full "xref.accepted");
  check Alcotest.int "full run exhausts nothing" 0
    (counter rep_full "xref.budget_exhausted");
  check Alcotest.bool "g2 detected with the full budget" true
    (List.mem (l "g2") (An.Recursive.starts res_full))

(* Regression: a decode-cache inconsistency mid-span used to abandon the
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
  (* poison the memoized decode under a committed span *)
  Hashtbl.replace loaded.An.Loaded.cache 0x1000 None;
  let _, rep = Obs.with_run (fun () -> Refs.collect loaded res) in
  check Alcotest.bool "poisoned decode resyncs and counts" true
    (counter rep "refs.scan_resync" >= 1)

(* Regression: extent overlap attribution used to follow hash iteration
   order; byte-wise max resolution makes the winner a function of the
   result alone, independent of insertion order. *)
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
      has_indirect_call = false;
      decode_error = false;
    }
  in
  let result_of fns : An.Recursive.result =
    let funcs = Hashtbl.create 8 in
    List.iter (fun (f : An.Recursive.func) -> Hashtbl.replace funcs f.entry f) fns;
    {
      funcs;
      noreturn = Hashtbl.create 1;
      cond_noreturn = Hashtbl.create 1;
      insn_spans = Fetch_util.Interval_map.create ();
    }
  in
  let f1 = mk 0x1000 [ (0x1000, 0x1020) ]
  and f2 = mk 0x1010 [ (0x1010, 0x1030) ]
  and f3 = mk 0x1040 [ (0x1040, 0x1050) ] in
  let l1 =
    Fetch_util.Interval_map.to_list (Xref.function_extents (result_of [ f1; f2; f3 ]))
  in
  let l2 =
    Fetch_util.Interval_map.to_list (Xref.function_extents (result_of [ f3; f2; f1 ]))
  in
  check Alcotest.bool "extents independent of table order" true (l1 = l2);
  (* byte-wise max: shared bytes go to the highest entry, unshared bytes
     keep their only owner *)
  check Alcotest.bool "overlap attribution is canonical" true
    (l1
    = [
        (0x1000, 0x1010, 0x1000); (0x1010, 0x1030, 0x1010);
        (0x1040, 0x1050, 0x1040);
      ])

(* The incremental extent map grown across Xref commits must equal the
   from-scratch rebuild after every commit — this is what lets the
   Incremental strategy skip the per-round O(funcs) rebuild. *)
let test_xref_extents_incremental () =
  let b = Lazy.force built in
  let loaded = An.Loaded.load (Fetch_elf.Image.strip b.image) in
  let seeds = loaded.An.Loaded.fde_starts in
  let ext = Xref.extents_create () in
  let commits = ref 0 in
  let _res, _seeds =
    Xref.detect loaded ~seeds ~on_commit:(fun ~cand:_ res ->
        incr commits;
        let inc = Fetch_util.Interval_map.to_list (Xref.extents_refresh ext res) in
        let scratch =
          Fetch_util.Interval_map.to_list (Xref.function_extents res)
        in
        if inc <> scratch then
          Alcotest.failf "commit %d: incremental extents diverge" !commits)
  in
  check Alcotest.bool "detection committed candidates" true (!commits > 0)

(* The acceptance property of the whole refactor: the incremental engine
   and the from-scratch rescan are indistinguishable — same final seeds,
   same starts, same spans, same noreturn facts, same §IV-E counters —
   over random corpora with random FDE-seed subsets removed (removed
   seeds turn their functions into xref's problem, forcing deep
   extension chains). *)
let prop_xref_strategy_differential =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* compiler = oneofl [ Profile.Synthgcc; Profile.Synthllvm ] in
      let* n_funcs = int_range 10 40 in
      let* pointer = int_bound 3 in
      let* code_ptr = int_bound 2 in
      let* drop = int_bound 3 in
      return (seed, compiler, n_funcs, pointer, code_ptr, drop))
  in
  QCheck.Test.make ~name:"xref: incremental == rescan" ~count:10
    (QCheck.make gen
       ~print:(fun (seed, c, n, p, cp, d) ->
         Printf.sprintf "seed=%d %s n=%d ptr=%d codeptr=%d drop=%d" seed
           (Profile.compiler_name c) n p cp d))
    (fun (seed, compiler, n_funcs, pointer, code_ptr, drop) ->
      let profile = Profile.make compiler Profile.O2 in
      let spec' =
        {
          Gen.default_spec with
          n_funcs;
          n_asm_pointer = pointer;
          n_asm_code_ptr = code_ptr;
          n_asm_called = 1;
          n_asm_unreachable = 1;
        }
      in
      let b = Link.build_random ~profile ~seed spec' in
      let loaded = An.Loaded.load b.image in
      let seeds =
        List.filteri (fun i _ -> i mod 4 >= drop) loaded.An.Loaded.fde_starts
      in
      let detect strategy =
        Obs.with_run (fun () -> Xref.detect ~strategy loaded ~seeds)
      in
      let (res_i, seeds_i), rep_i = detect Xref.Incremental in
      let (res_r, seeds_r), rep_r = detect Xref.Rescan in
      let xref_counters (rep : Obs.report) =
        List.filter
          (fun (n, _) -> String.length n >= 5 && String.sub n 0 5 = "xref.")
          rep.Obs.counters
        |> List.sort compare
      in
      let keys tbl =
        List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) tbl [])
      in
      seeds_i = seeds_r
      && An.Recursive.starts res_i = An.Recursive.starts res_r
      && Fetch_util.Interval_map.to_list res_i.An.Recursive.insn_spans
         = Fetch_util.Interval_map.to_list res_r.An.Recursive.insn_spans
      && keys res_i.An.Recursive.noreturn = keys res_r.An.Recursive.noreturn
      && keys res_i.An.Recursive.cond_noreturn
         = keys res_r.An.Recursive.cond_noreturn
      && xref_counters rep_i = xref_counters rep_r)

let suite =
  [
    Alcotest.test_case "FDE-only coverage (Q1)" `Quick test_fde_only;
    Alcotest.test_case "xref: mid-instruction pointer rejected" `Quick test_xref_mid_instruction_reject;
    Alcotest.test_case "xref: known entries skipped in accounting" `Quick test_xref_known_entry_accounting;
    Alcotest.test_case "xref: budget exhaustion announced" `Quick test_xref_budget_exhaustion;
    Alcotest.test_case "refs: span scan resyncs on bad decode" `Quick test_refs_scan_resync;
    Alcotest.test_case "xref: extents attribution deterministic" `Quick test_xref_extents_deterministic;
    Alcotest.test_case "xref: incremental extents == rebuild" `Quick
      test_xref_extents_incremental;
    Alcotest.test_case "provenance ledger end-to-end" `Quick test_provenance_end_to_end;
    Alcotest.test_case "full pipeline accuracy" `Quick test_full_pipeline_accuracy;
    Alcotest.test_case "pipeline from raw bytes" `Quick test_pipeline_on_encoded_bytes;
    Alcotest.test_case "Algorithm 1 merges cold parts" `Quick test_algorithm1_removes_cold_fps;
    Alcotest.test_case "tail calls detected safely" `Quick test_tail_calls_detected;
    Alcotest.test_case "broken FDE rejected and recovered" `Quick test_broken_fde_rejected;
    Alcotest.test_case "pipeline carries Algorithm 1's census" `Quick test_census_carried;
    Alcotest.test_case "xref finds pointer-only functions" `Quick test_xref_finds_pointer_only_functions;
    Alcotest.test_case "jump tables followed" `Quick test_jump_tables_followed;
    Alcotest.test_case "noreturn analysis" `Quick test_noreturn_detected;
    Alcotest.test_case "all profiles: no FPs" `Slow test_all_profiles_no_fp;
  ]

(* Property: on arbitrary generator configurations, FETCH never reports a
   false positive and never misses a function outside the documented
   harmless classes. *)
let prop_fetch_invariants =
  let gen =
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
  in
  QCheck.Test.make ~name:"FETCH invariants on random corpora" ~count:12
    (QCheck.make gen
       ~print:(fun (seed, c, o, n, cxx, t, p, u) ->
         Printf.sprintf "seed=%d %s-%s n=%d cxx=%b t=%d p=%d u=%d" seed
           (Profile.compiler_name c) (Profile.opt_name o) n cxx t p u))
    (fun (seed, compiler, opt, n_funcs, cxx, tailonly, pointer, unreachable) ->
      let profile = Profile.make compiler opt in
      let spec' =
        {
          Gen.default_spec with
          n_funcs;
          cxx;
          n_asm_tailonly = tailonly;
          n_asm_pointer = pointer;
          n_asm_unreachable = unreachable;
        }
      in
      let b = Link.build_random ~profile ~seed spec' in
      let r = Pipeline.run b.image in
      let fp, fn = metrics b.truth r.starts in
      List.for_all (acceptable_residual_fp r b.truth) fp
      && List.for_all (acceptable_miss r b.truth) fn)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_fetch_invariants;
      QCheck_alcotest.to_alcotest prop_xref_strategy_differential;
    ]
