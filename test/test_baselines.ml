(* Tests for fetch.baselines: each tool model's characteristic behaviour on
   purpose-built binaries. *)

open Fetch_synth
open Fetch_baselines

let check = Alcotest.check

let profile = Profile.make Profile.Synthgcc Profile.O2

let build ?(spec = Gen.default_spec) ?(seed = 555) () =
  let b = Link.build_random ~profile ~seed { spec with Gen.n_funcs = 40 } in
  let stripped = Fetch_elf.Image.strip b.image in
  (b, Fetch_analysis.Loaded.load stripped)

let score (b : Link.built) detected =
  let truth = Truth.starts b.truth in
  let fp = List.filter (fun d -> not (List.mem d truth)) detected in
  let fn = List.filter (fun t -> not (List.mem t detected)) truth in
  (List.length fp, List.length fn)

let test_all_tools_run () =
  let b, loaded = build () in
  List.iter
    (fun (tool : Tools.t) ->
      let detected = tool.detect loaded in
      check Alcotest.bool (tool.name ^ " finds functions") true
        (List.length detected > 10);
      (* every tool finds main's address or at least the entry *)
      ignore (score b detected))
    Tools.all

let test_fde_tools_beat_pattern_tools () =
  (* aggregate over a few seeds to avoid flakiness *)
  let totals = Hashtbl.create 16 in
  List.iter
    (fun seed ->
      let b, loaded = build ~seed () in
      List.iter
        (fun (tool : Tools.t) ->
          let fp, fn = score b (tool.detect loaded) in
          let pfp, pfn =
            Option.value ~default:(0, 0) (Hashtbl.find_opt totals tool.name)
          in
          Hashtbl.replace totals tool.name (pfp + fp, pfn + fn))
        Tools.all)
    [ 1; 2; 3; 4 ];
  let fn_of name = snd (Hashtbl.find totals name) in
  let fp_of name = fst (Hashtbl.find totals name) in
  (* FETCH coverage beats every non-FDE tool *)
  List.iter
    (fun t ->
      check Alcotest.bool ("FETCH FN <= " ^ t) true (fn_of "FETCH" <= fn_of t))
    [ "DYNINST"; "BAP"; "RADARE2"; "NUCLEUS"; "IDA Pro" ];
  (* BAP is the false-positive champion, as in Table III *)
  List.iter
    (fun t ->
      check Alcotest.bool ("BAP FP >= " ^ t) true (fp_of "BAP" >= fp_of t))
    [ "DYNINST"; "RADARE2"; "IDA Pro"; "FETCH" ];
  (* RADARE2 conservative: fewest FPs among pattern tools *)
  check Alcotest.bool "RADARE2 FP small" true (fp_of "RADARE2" <= fp_of "DYNINST")

let test_ghidra_thunk_heuristic_fp () =
  (* entry-jump (rotated-loop) functions trick the thunk heuristic *)
  let found = ref false in
  List.iter
    (fun seed ->
      if not !found then begin
        let b, loaded = build ~seed () in
        let no_thunk =
          Fetch_analysis.Recursive.(
            starts (run loaded ~seeds:loaded.Fetch_analysis.Loaded.seeds))
        in
        let with_thunk =
          Ghidra_model.detect
            ~config:{ cfr = false; fsig = false; tcall = false }
            loaded
        in
        let fp_no, _ = score b no_thunk in
        let fp_with, _ = score b with_thunk in
        if fp_with > fp_no then found := true
      end)
    [ 10; 11; 12; 13; 14; 15; 16; 17 ];
  check Alcotest.bool "thunk heuristic introduces FPs on some binary" true !found

let test_ghidra_cfr_loses_coverage () =
  (* Os binaries (no alignment) suffer from control-flow repair *)
  let p = Profile.make Profile.Synthgcc Profile.Os in
  let lost = ref false in
  List.iter
    (fun seed ->
      let b = Link.build_random ~profile:p ~seed { Gen.default_spec with n_funcs = 50 } in
      let loaded = Fetch_analysis.Loaded.load (Fetch_elf.Image.strip b.image) in
      let with_cfr =
        Ghidra_model.detect
          ~config:{ cfr = true; fsig = false; tcall = false }
          loaded
      in
      let without =
        Ghidra_model.detect
          ~config:{ cfr = false; fsig = false; tcall = false }
          loaded
      in
      let _, fn_with = score b with_cfr in
      let _, fn_without = score b without in
      if fn_with > fn_without then lost := true)
    [ 20; 21; 22; 23; 24 ];
  check Alcotest.bool "CFR removes true starts on some Os binary" true !lost

let test_ghidra_tcall_floods_fps () =
  (* the far-jump heuristic needs binaries with larger function bodies *)
  let p = Profile.make Profile.Synthgcc Profile.O3 in
  let fp_base = ref 0 and fp_tcall = ref 0 in
  List.iter
    (fun seed ->
      let b = Link.build_random ~profile:p ~seed { Gen.default_spec with n_funcs = 60 } in
      let loaded = Fetch_analysis.Loaded.load (Fetch_elf.Image.strip b.image) in
      let run tcall =
        Ghidra_model.detect
          ~config:{ cfr = false; fsig = true; tcall }
          loaded
      in
      let f0, _ = score b (run false) in
      let f1, _ = score b (run true) in
      fp_base := !fp_base + f0;
      fp_tcall := !fp_tcall + f1)
    [ 50; 51; 52 ];
  check Alcotest.bool "tcall adds many FPs" true (!fp_tcall > !fp_base + 5)

let test_angr_scan_kills_accuracy () =
  let b, loaded = build () in
  let base = Angr_model.detect loaded in
  let scan =
    Angr_model.detect
      ~config:
        { merge = true; fsig = true;
          tcall = false; scan = true }
      loaded
  in
  let fp_base, _ = score b base in
  let fp_scan, _ = score b scan in
  check Alcotest.bool "scan adds FPs" true (fp_scan >= fp_base)

let test_angr_tcall_finds_tail_only () =
  (* the angr-style tail-call split finds tail-only-reachable functions *)
  let spec = { Gen.default_spec with Gen.n_asm_tailonly = 2 } in
  let hit = ref false in
  List.iter
    (fun seed ->
      let b, loaded = build ~spec ~seed () in
      let base = Angr_model.detect loaded in
      let tc =
        Angr_model.detect
          ~config:
            { merge = true; fsig = true;
              tcall = true; scan = false }
          loaded
      in
      let _, fn_base = score b base in
      let _, fn_tc = score b tc in
      if fn_tc < fn_base then hit := true)
    [ 30; 31; 32; 33; 34 ];
  check Alcotest.bool "tcall recovers tail-only functions somewhere" true !hit

let test_nucleus_merges_tail_targets () =
  (* functions reachable only via jmp get grouped with their caller *)
  let spec = { Gen.default_spec with Gen.n_asm_tailonly = 2 } in
  let merged = ref false in
  List.iter
    (fun seed ->
      let b, loaded = build ~spec ~seed () in
      let detected = Pattern_tools.Nucleus.detect loaded in
      List.iter
        (fun (f : Truth.fn_truth) ->
          if f.tail_only && not (List.mem f.start detected) then merged := true)
        b.truth.fns)
    [ 40; 41; 42 ];
  check Alcotest.bool "nucleus misses some tail-only function" true !merged

let test_heuristics_alignment_finds_unreachable () =
  let spec = { Gen.default_spec with Gen.n_asm_unreachable = 2 } in
  let b, loaded = build ~spec ~seed:77 () in
  let res =
    Fetch_analysis.Recursive.run loaded ~seeds:loaded.Fetch_analysis.Loaded.fde_starts
  in
  let found = Heuristics.alignment_starts loaded res in
  let unreachable =
    List.filter (fun (f : Truth.fn_truth) -> f.unreachable) b.truth.fns
  in
  check Alcotest.bool "has unreachable fns" true (unreachable <> []);
  check Alcotest.bool "alignment heuristic finds at least one" true
    (List.exists (fun (f : Truth.fn_truth) -> List.mem f.start found) unreachable)

let suite =
  [
    Alcotest.test_case "all tools run" `Quick test_all_tools_run;
    Alcotest.test_case "FDE tools beat pattern tools" `Quick test_fde_tools_beat_pattern_tools;
    Alcotest.test_case "ghidra thunk heuristic FPs" `Quick test_ghidra_thunk_heuristic_fp;
    Alcotest.test_case "ghidra CFR loses coverage" `Quick test_ghidra_cfr_loses_coverage;
    Alcotest.test_case "ghidra tcall floods FPs" `Quick test_ghidra_tcall_floods_fps;
    Alcotest.test_case "angr scan hurts accuracy" `Quick test_angr_scan_kills_accuracy;
    Alcotest.test_case "angr tcall finds tail-only fns" `Quick test_angr_tcall_finds_tail_only;
    Alcotest.test_case "nucleus merges tail targets" `Quick test_nucleus_merges_tail_targets;
    Alcotest.test_case "alignment heuristic finds unreachable" `Quick test_heuristics_alignment_finds_unreachable;
  ]
