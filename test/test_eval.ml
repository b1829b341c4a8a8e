(* Tests for fetch.eval: metrics, corpus determinism, and smoke runs of the
   experiment drivers on a restricted corpus. *)

open Fetch_eval

let check = Alcotest.check

let test_metrics () =
  let truth =
    {
      Fetch_synth.Truth.fns =
        List.map
          (fun (name, start) ->
            {
              Fetch_synth.Truth.name; start; size = 8; parts = [ (start, 8) ];
              is_assembly = false; has_fde = true; noreturn = false;
              tail_only = false; unreachable = false; leaf = false;
            })
          [ ("a", 0x100); ("b", 0x200); ("c", 0x300) ];
      jump_tables = [];
      pools = [];
      text_lo = 0x100;
      text_hi = 0x400;
    }
  in
  let m = Metrics.score truth [ 0x100; 0x200; 0x999 ] in
  check Alcotest.int "n_true" 3 m.n_true;
  check (Alcotest.list Alcotest.int) "fp" [ 0x999 ] m.fp;
  check (Alcotest.list Alcotest.int) "fn" [ 0x300 ] m.fn;
  check Alcotest.bool "not full cov" false (Metrics.full_coverage m);
  check Alcotest.bool "not full acc" false (Metrics.full_accuracy m);
  let perfect = Metrics.score truth [ 0x100; 0x200; 0x300 ] in
  check Alcotest.bool "full cov" true (Metrics.full_coverage perfect);
  check Alcotest.bool "full acc" true (Metrics.full_accuracy perfect);
  let t = Metrics.totals () in
  Metrics.add t m;
  Metrics.add t perfect;
  check Alcotest.int "bins" 2 t.bins;
  check Alcotest.int "fp total" 1 t.fp_total;
  check Alcotest.int "full acc count" 1 t.full_acc

let test_pre_rec () =
  let pr = { Metrics.reported = 80; correct = 72; expected = 100 } in
  check (Alcotest.float 0.01) "precision" 90.0 (Metrics.precision pr);
  check (Alcotest.float 0.01) "recall" 72.0 (Metrics.recall pr);
  check (Alcotest.float 0.01) "empty precision" 100.0
    (Metrics.precision Metrics.empty_pre_rec)

let test_corpus_deterministic () =
  let collect () =
    Corpus.fold_selfbuilt ~only:[ "ZSH-5.7.1" ] ~init:[] (fun acc b ->
        (b.id, String.length b.built.raw, b.built.image.entry) :: acc)
  in
  let a = collect () and b = collect () in
  check Alcotest.int "8 binaries (2 compilers x 4 opts)" 8 (List.length a);
  check Alcotest.bool "reproducible" true (a = b)

let test_corpus_count () =
  check Alcotest.int "full corpus size" (179 * 8) (Corpus.count_selfbuilt ());
  check Alcotest.int "wild corpus size" 43 (List.length Corpus.wild_rows)

let test_q1_shape_on_subset () =
  (* FDE coverage should be 100% for a no-asm project and < 100% for the
     asm-heavy one *)
  let module IS = Set.Make (Int) in
  let coverage pname =
    Corpus.fold_selfbuilt ~only:[ pname ] ~init:(0, 0) (fun (cov, tot) b ->
        let fdes =
          IS.of_list
            (List.map
               (fun (f : Fetch_dwarf.Eh_frame.fde) -> f.pc_begin)
               (Fetch_dwarf.Eh_frame.all_fdes
                  (Fetch_dwarf.Eh_frame.of_image b.built.image).cies))
        in
        List.fold_left
          (fun (cov, tot) (f : Fetch_synth.Truth.fn_truth) ->
            ((cov + if IS.mem f.start fdes then 1 else 0), tot + 1))
          (cov, tot) b.built.truth.fns)
  in
  let c_zsh, t_zsh = coverage "ZSH-5.7.1" in
  check Alcotest.int "zsh: full FDE coverage" t_zsh c_zsh;
  let c_ssl, t_ssl = coverage "Openssl-1.1.0l" in
  check Alcotest.bool "openssl: FDE gaps" true (c_ssl < t_ssl)

let test_strategies_on_subset () =
  (* run the Fig. 5 stacks on one project and check the headline ordering *)
  let totals =
    List.map
      (fun (g, stacks) ->
        (g, List.map (fun (s : Exp_strategies.strategy) -> (s, Metrics.totals ())) stacks))
      [
        ("GHIDRA", Exp_strategies.ghidra_stacks);
        ("FETCH", Exp_strategies.fetch_stacks);
      ]
  in
  Corpus.fold_selfbuilt ~only:[ "Nginx-1.15.0" ] ~init:() (fun () b ->
      let loaded =
        Fetch_analysis.Loaded.load (Fetch_elf.Image.strip b.built.image)
      in
      List.iter
        (fun (_, stacks) ->
          List.iter
            (fun ((s : Exp_strategies.strategy), t) ->
              Metrics.add t (Metrics.score b.built.truth (s.run loaded)))
            stacks)
        totals);
  let find g name =
    let _, stacks = List.find (fun (g', _) -> g' = g) totals in
    snd
      (List.find (fun ((s : Exp_strategies.strategy), _) -> s.sname = name) stacks)
  in
  let fde = find "FETCH" "FDE" in
  let rec_safe = find "FETCH" "FDE+Rec (safe)" in
  let fetch_full = find "FETCH" "FDE+Rec+Xref+Fix (FETCH)" in
  (* safe recursion never adds FPs and never loses coverage *)
  check Alcotest.bool "rec adds no FPs" true
    (rec_safe.fp_total <= fde.fp_total);
  check Alcotest.bool "rec adds coverage" true
    (rec_safe.fn_total <= fde.fn_total);
  (* the fix removes most FDE FPs *)
  check Alcotest.bool "fix removes FPs" true
    (fetch_full.fp_total * 2 < rec_safe.fp_total || rec_safe.fp_total = 0);
  (* unsafe Tcall adds FPs over the safe ghidra stack *)
  let g_base = find "GHIDRA" "FDE+Rec+Fsig" in
  let g_tcall = find "GHIDRA" "FDE+Rec+Fsig+Tcall" in
  check Alcotest.bool "ghidra tcall FPs" true (g_tcall.fp_total >= g_base.fp_total)

let test_heights_driver_on_subset () =
  (* sanity: the Table IV scorer reports sane percentages *)
  let cells = Hashtbl.create 8 in
  ignore cells;
  let pr = ref Metrics.empty_pre_rec in
  Corpus.fold_selfbuilt ~only:[ "Lighttpd-1.4.54" ] ~init:() (fun () b ->
      let loaded =
        Fetch_analysis.Loaded.load (Fetch_elf.Image.strip b.built.image)
      in
      List.iter
        (fun (f : Fetch_synth.Truth.fn_truth) ->
          if
            f.has_fde
            && Fetch_dwarf.Height_oracle.complete_at loaded.oracle f.start
          then
            let expected = Exp_heights.expected_heights loaded f in
            let heights =
              Fetch_analysis.Stack_height.analyze loaded
                ~style:Fetch_analysis.Stack_height.Dyninst f.start
            in
            List.iter
              (fun (addr, h, _) ->
                let reported, correct =
                  match heights addr with
                  | Some h' -> (1, if h' = h then 1 else 0)
                  | None -> (0, 0)
                in
                pr :=
                  Metrics.add_pre_rec !pr { Metrics.reported; correct; expected = 1 })
              expected)
        b.built.truth.fns);
  check Alcotest.bool "many locations" true (!pr.expected > 1000);
  check Alcotest.bool "precision high" true (Metrics.precision !pr > 95.0);
  check Alcotest.bool "recall high" true (Metrics.recall !pr > 95.0)

(* score_lists is the set-based replacement for the CLI's old quadratic
   list-membership scoring: pin it to the naive definition *)
let prop_score_lists_matches_naive =
  let gen = QCheck.(pair (list (int_bound 64)) (list (int_bound 64))) in
  QCheck.Test.make ~name:"score_lists matches the naive quadratic scorer"
    ~count:200 gen (fun (truth, detected) ->
      let m = Metrics.score_lists ~truth ~detected in
      let dedup_sorted l = List.sort_uniq compare l in
      let naive_fp =
        dedup_sorted (List.filter (fun d -> not (List.mem d truth)) detected)
      in
      let naive_fn =
        dedup_sorted (List.filter (fun t -> not (List.mem t detected)) truth)
      in
      m.fp = naive_fp && m.fn = naive_fn
      && m.n_true = List.length (dedup_sorted truth)
      && m.n_detected = List.length (dedup_sorted detected))

let suite =
  [
    Alcotest.test_case "metrics scoring" `Quick test_metrics;
    QCheck_alcotest.to_alcotest prop_score_lists_matches_naive;
    Alcotest.test_case "precision/recall" `Quick test_pre_rec;
    Alcotest.test_case "corpus determinism" `Quick test_corpus_deterministic;
    Alcotest.test_case "corpus counts" `Quick test_corpus_count;
    Alcotest.test_case "Q1 shape on subset" `Quick test_q1_shape_on_subset;
    Alcotest.test_case "strategy stacks on subset" `Quick test_strategies_on_subset;
    Alcotest.test_case "Table IV scorer on subset" `Quick test_heights_driver_on_subset;
  ]
