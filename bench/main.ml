(* Benchmark and reproduction harness: regenerates every table and figure
   of the paper's evaluation over the synthetic corpus, then runs Bechamel
   micro-benchmarks of the analysis kernels (one per table).

   Usage:
     main.exe                 run everything on the full 1,432-binary corpus
     main.exe --scale 0.1     shrink the corpus (fraction of programs)
     main.exe --domains 4     domain count for the parallel perf run
     main.exe perf --check BENCH_pipeline.json
                              regression gate: rerun the perf section at the
                              baseline's scale and fail on detection drift or
                              speed-adjusted stage-time regressions
     main.exe table1|table2|fig5|errors|table3|table4|ablation|pe|perf|micro *)

let scale = ref 1.0
let scale_set = ref false
let domains = ref 0 (* 0 = Fetch_par.Pool.default_domains () *)
let sections = ref []
let check_file = ref None
let tolerance = ref 0.5

(* Every name [want] is queried with below, including the aliases —
   a misspelled section must be an error, not a silent no-op run. *)
let known_sections =
  [
    "table1"; "table2"; "q1"; "fig5"; "q2"; "q3"; "errors"; "xref"; "alg1";
    "rop"; "table3"; "table5"; "table4"; "ablation"; "adversarial"; "pe";
    "perf"; "serve"; "micro";
  ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      Printf.eprintf
        "usage: main.exe [--scale FRACTION] [--domains N] [--check BASELINE \
         [--tolerance T]] [SECTION]...\n";
      Printf.eprintf "sections: %s\n" (String.concat " " known_sections);
      exit 2)
    fmt

let () =
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 && s <= 1.0 ->
            scale := s;
            scale_set := true;
            parse rest
        | Some _ -> usage_error "--scale %s is out of range (0, 1]" v
        | None -> usage_error "--scale expects a number, got %S" v)
    | [ "--scale" ] -> usage_error "--scale expects a value"
    | "--check" :: v :: rest ->
        check_file := Some v;
        sections := "perf" :: !sections;
        parse rest
    | [ "--check" ] -> usage_error "--check expects a baseline file"
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t >= 0.0 ->
            tolerance := t;
            parse rest
        | _ -> usage_error "--tolerance expects a non-negative number, got %S" v)
    | [ "--tolerance" ] -> usage_error "--tolerance expects a value"
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            domains := n;
            parse rest
        | _ -> usage_error "--domains expects a positive integer, got %S" v)
    | [ "--domains" ] -> usage_error "--domains expects a value"
    | s :: rest when List.mem s known_sections ->
        sections := s :: !sections;
        parse rest
    | s :: _ -> usage_error "unknown section %S" s
  in
  parse (List.tl (Array.to_list Sys.argv))

let want s = !sections = [] || List.mem s !sections

let banner title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let time name f =
  (* monotonic wall clock: Sys.time is CPU time, which is not what the
     paper's Table V reports *)
  let r, dt = Fetch_obs.Clock.time_s f in
  Printf.printf "[%s finished in %.1fs]\n%!" name dt;
  r

(* ------------------------------------------------------------------ *)
(* Per-stage pipeline perf snapshot: run the instrumented FETCH        *)
(* pipeline over the corpus — once sequentially, once on a domain pool *)
(* — verify the parallel run reproduces the sequential results, and    *)
(* write per-stage totals plus both wall clocks to BENCH_pipeline.json *)
(* so later PRs can compare trajectories.                              *)
(* ------------------------------------------------------------------ *)

let snapshot_file = "BENCH_pipeline.json"

module Gate = Fetch_obs.Bench_gate

let read_baseline path =
  match open_in_bin path with
  | exception Sys_error e ->
      Printf.eprintf "error: %s\n" e;
      exit 2
  | ic ->
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match Gate.of_json_string text with
      | Ok s -> s
      | Error e ->
          Printf.eprintf "error: %s: %s\n" path e;
          exit 2)

(* The gate baseline, read before anything is printed: a gate run
   compares like with like, so it runs at the baseline's scale unless the
   user forced one, and the header must announce that scale. *)
let baseline =
  let b = Option.map read_baseline !check_file in
  (match b with Some b when not !scale_set -> scale := b.Gate.scale | _ -> ());
  b

let perf () =
  (match baseline with
  | Some b when not !scale_set ->
      Printf.printf "checking against %s (scale %g, %d binaries)\n"
        (Option.get !check_file) b.Gate.scale b.Gate.binaries
  | _ -> ());
  let analyze (id, stripped) =
    let r, report =
      Fetch_obs.Trace.with_run (fun () ->
          let loaded = Fetch_analysis.Loaded.load stripped in
          let r = Fetch_core.Pipeline.run_loaded loaded in
          (* lint every answer, as batch and serve do; its spans sit
             beside [pipeline], so the gate's speed factor ignores them *)
          ignore (Fetch_core.Lint.run r);
          r)
    in
    (id, r.Fetch_core.Pipeline.starts, report)
  in
  (* both walls time analysis only: every corpus image is synthesized
     and stripped once, before either timed pass *)
  let inputs =
    List.map
      (fun (j : Fetch_eval.Corpus.job) ->
        let bin = j.build () in
        (bin.id, Fetch_elf.Image.strip bin.built.image))
      (Fetch_eval.Corpus.jobs_selfbuilt ~scale:!scale ())
  in
  let binaries = List.length inputs in
  let n_domains =
    if !domains > 0 then !domains else Fetch_par.Pool.default_domains ()
  in
  Printf.printf "sequential baseline (%d binaries)...\n%!" binaries;
  let seq, seq_wall =
    Fetch_obs.Clock.time_s (fun () -> List.map analyze inputs)
  in
  Printf.printf "parallel run (%d domains)...\n%!" n_domains;
  let par_outcomes, par_wall =
    Fetch_obs.Clock.time_s (fun () ->
        Fetch_par.Pool.with_pool ~domains:n_domains (fun pool ->
            Fetch_par.Pool.map pool ~label:(fun _ (id, _) -> id) analyze inputs))
  in
  let par =
    List.map
      (function
        | Ok v -> v
        | Error f ->
            Printf.eprintf "parallel corpus run failed:\n%s\n"
              (Fetch_par.Pool.failure_to_string f);
            exit 1)
      par_outcomes
  in
  (* the parallel run must be a drop-in replacement: same binaries, same
     per-binary starts, same merged counter totals *)
  let key (id, starts, _) = (id, starts) in
  if List.map key seq <> List.map key par then begin
    Printf.eprintf "parallel per-binary results differ from sequential run\n";
    exit 1
  end;
  let merged l = Fetch_obs.Trace.merge (List.map (fun (_, _, r) -> r) l) in
  let seq_merged = merged seq and par_merged = merged par in
  if seq_merged.Fetch_obs.Trace.counters <> par_merged.Fetch_obs.Trace.counters
  then begin
    Printf.eprintf "merged parallel counters differ from sequential run\n";
    exit 1
  end;
  Printf.printf
    "sequential %.3fs, parallel %.3fs on %d domains (speedup %.2fx); \
     per-binary results and merged counters identical\n"
    seq_wall par_wall n_domains
    (seq_wall /. par_wall);
  let aggs = Fetch_obs.Report.aggregate_spans seq_merged in
  let pipeline_total_ns =
    List.fold_left
      (fun acc (a : Fetch_obs.Report.agg) ->
        if a.agg_name = "pipeline" then Int64.add acc a.agg_total_ns else acc)
      0L aggs
  in
  let snapshot =
    {
      Gate.schema = Gate.schema_current;
      scale = !scale;
      binaries;
      domains = n_domains;
      host = Some (Gate.this_host ());
      seq_wall_s = seq_wall;
      par_wall_s = par_wall;
      pipeline_total_ms = Int64.to_float pipeline_total_ns /. 1e6;
      stages =
        List.map
          (fun (a : Fetch_obs.Report.agg) ->
            {
              Gate.s_name = a.agg_name;
              s_calls = a.agg_calls;
              s_total_ms = Int64.to_float a.agg_total_ns /. 1e6;
              s_mean_ms =
                Int64.to_float a.agg_total_ns /. 1e6 /. float_of_int binaries;
            })
          aggs;
      counters = seq_merged.Fetch_obs.Trace.counters;
      histograms =
        List.filter
          (fun (_, h) -> h.Fetch_obs.Trace.count > 0)
          seq_merged.Fetch_obs.Trace.histograms;
    }
  in
  match baseline with
  | None ->
      let oc = open_out snapshot_file in
      output_string oc (Gate.to_json snapshot);
      close_out oc;
      Printf.printf "wrote %s (%d binaries)\n" snapshot_file binaries;
      print_string (Fetch_obs.Report.text seq_merged)
  | Some b -> (
      (* the stage table the gate judged, so a gate log shows its numbers *)
      let ms = Printf.sprintf "%.3f" in
      print_string
        (Fetch_util.Text_table.render
           ~header:[ "stage"; "mean ms"; "baseline ms"; "limit ms" ]
           (List.map
              (fun (j : Gate.judged) ->
                [
                  j.j_name;
                  Option.fold ~none:"missing" ~some:ms j.j_mean;
                  ms j.j_baseline;
                  Option.fold ~none:"not gated" ~some:ms j.j_limit;
                ])
              (Gate.judge ~tolerance:!tolerance ~baseline:b ~current:snapshot ())));
      match Gate.check ~tolerance:!tolerance ~baseline:b ~current:snapshot () with
      | [] ->
          Printf.printf
            "gate passed: %d counters identical, %d counter laws hold, stage \
             means within %g%% (speed-adjusted)\n"
            (List.length b.Gate.counters)
            (List.length (Fetch_obs.Law.all ()))
            (!tolerance *. 100.0)
      | issues ->
          Printf.eprintf "bench gate FAILED (%d issue%s):\n"
            (List.length issues)
            (if List.length issues = 1 then "" else "s");
          List.iter
            (fun i -> Printf.eprintf "  %s\n" (Gate.issue_to_string i))
            issues;
          exit 1)

(* ------------------------------------------------------------------ *)
(* Serve daemon: cold vs warm throughput through the ordered engine.   *)
(* The warm pass resubmits the identical corpus; every response must   *)
(* come from the content-addressed cache, byte-identical to its cold   *)
(* counterpart — the speedup ratio is the cache's whole value prop.    *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  let module Engine = Fetch_serve.Engine in
  let n = max 4 (int_of_float (32.0 *. !scale)) in
  let profile =
    Fetch_synth.Profile.make Fetch_synth.Profile.Synthgcc Fetch_synth.Profile.O2
  in
  let lines =
    List.init n (fun i ->
        let raw =
          (Fetch_synth.Link.build_random ~profile ~seed:(3000 + i)
             { Fetch_synth.Gen.default_spec with n_funcs = 20 })
            .raw
        in
        Printf.sprintf {|{"id":%d,"bytes_b64":%s}|} i
          (Fetch_util.Json.escape (Fetch_util.B64.encode raw)))
  in
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          domains =
            (if !domains = 0 then Fetch_par.Pool.default_domains ()
             else !domains);
          cache_bytes = 256 * 1024 * 1024;
          queue_bound = 2 * n;
        }
      ()
  in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      let pass label =
        let t0 = Fetch_obs.Clock.now_s () in
        List.iter (Engine.submit_line engine) lines;
        let responses = Engine.flush engine in
        let dt = Fetch_obs.Clock.now_s () -. t0 in
        Printf.printf "  %-5s %4d requests in %7.3fs  (%8.1f req/s)\n" label n
          dt
          (float_of_int n /. dt);
        (responses, dt)
      in
      let cold, cold_dt = pass "cold" in
      let warm, warm_dt = pass "warm" in
      if cold <> warm then begin
        Printf.eprintf
          "serve bench FAILED: warm responses differ from cold responses\n";
        exit 1
      end;
      let stats = Engine.stats_json engine in
      let hits =
        match Fetch_util.Json.parse stats with
        | Ok j ->
            Option.bind (Fetch_util.Json.member "cache" j)
              (Fetch_util.Json.member "hits")
            |> Fun.flip Option.bind Fetch_util.Json.to_int
            |> Option.value ~default:0
        | Error _ -> 0
      in
      if hits < n then begin
        Printf.eprintf
          "serve bench FAILED: warm pass hit the cache %d/%d times\n" hits n;
        exit 1
      end;
      Printf.printf
        "  warm pass served entirely from cache (%d hits), speedup %.0fx\n"
        hits
        (cold_dt /. Float.max warm_dt 1e-9))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per paper table.           *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let profile = Fetch_synth.Profile.make Fetch_synth.Profile.Synthgcc Fetch_synth.Profile.O2 in
  let built =
    Fetch_synth.Link.build_random ~profile ~seed:4242
      { Fetch_synth.Gen.default_spec with n_funcs = 80 }
  in
  let stripped = Fetch_elf.Image.strip built.image in
  let loaded = Fetch_analysis.Loaded.load stripped in
  let xref_seeds =
    List.filteri (fun i _ -> i mod 2 = 0) loaded.Fetch_analysis.Loaded.fde_starts
  in
  let tests =
    [
      (* Table I/II kernel: eh_frame parsing *)
      Test.make ~name:"table1_2/eh_frame_decode"
        (Staged.stage (fun () ->
             ignore (Fetch_dwarf.Eh_frame.of_image built.image)));
      (* Q1/Fig5 kernel: safe recursive disassembly *)
      Test.make ~name:"fig5/safe_recursive_disassembly"
        (Staged.stage (fun () ->
             ignore
               (Fetch_analysis.Recursive.run loaded
                  ~seeds:loaded.Fetch_analysis.Loaded.fde_starts)));
      (* SIV-E / Table III kernel: full FETCH pipeline *)
      Test.make ~name:"table3/fetch_pipeline"
        (Staged.stage (fun () ->
             ignore (Fetch_core.Pipeline.run_loaded loaded)));
      (* Table IV kernel: static stack-height analysis *)
      Test.make ~name:"table4/stack_height_analysis"
        (Staged.stage (fun () ->
             List.iter
               (fun s ->
                 ignore
                   (Fetch_analysis.Stack_height.analyze loaded
                      ~style:Fetch_analysis.Stack_height.Dyninst s s))
               loaded.Fetch_analysis.Loaded.fde_starts));
      (* SV-A kernel: ROP gadget scan *)
      Test.make ~name:"errors/rop_scan"
        (Staged.stage (fun () ->
             List.iter
               (fun (lo, hi) ->
                 ignore
                   (Fetch_rop.Gadget.in_range loaded ~depth:3 ~lo
                      ~hi:(min hi (lo + 512))))
               (Fetch_analysis.Loaded.text_ranges loaded)));
      (* §IV-E kernel, with half the FDE seeds withheld so pointer
         rounds actually iterate *)
      Test.make ~name:"xref/detect"
        (Staged.stage (fun () ->
             ignore (Fetch_core.Xref.detect loaded ~seeds:xref_seeds)));
      (* Table V kernel: synthetic compiler end-to-end *)
      Test.make ~name:"table5/synth_build"
        (Staged.stage (fun () ->
             ignore
               (Fetch_synth.Link.build_random ~profile ~seed:99
                  { Fetch_synth.Gen.default_spec with n_funcs = 40 })));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg [ instance ] test in
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  banner "Bechamel micro-benchmarks (one kernel per paper table)";
  List.iter
    (fun t ->
      let results = benchmark t in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-40s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "FETCH reproduction harness (scale %.2f: %d self-built binaries)\n"
    !scale
    (Fetch_eval.Corpus.count_selfbuilt ~scale:!scale ());
  if want "table1" then begin
    banner "Table I — wild binaries";
    print_string (time "table1" (fun () -> Fetch_eval.Exp_dataset.table1 ()))
  end;
  if want "table2" || want "q1" then begin
    banner "Table II + Q1 — self-built corpus, FDE coverage";
    print_string
      (time "table2+q1" (fun () -> Fetch_eval.Exp_dataset.table2_q1 ~scale:!scale ()))
  end;
  if want "fig5" || want "q2" || want "q3" then begin
    banner "Figure 5 + Q2 + Q3 — strategy stacks";
    let results = time "fig5" (fun () -> Fetch_eval.Exp_strategies.run ~scale:!scale ()) in
    print_string (Fetch_eval.Exp_strategies.render results)
  end;
  if want "errors" || want "xref" || want "alg1" || want "rop" then begin
    banner "SIV-E + SV-A + SV-C — pointer detection, FDE errors, Algorithm 1";
    let t = time "errors" (fun () -> Fetch_eval.Exp_errors.run ~scale:!scale ()) in
    print_string (Fetch_eval.Exp_errors.render t)
  end;
  if want "table3" || want "table5" then begin
    banner "Table III + Table V — tool comparison and timing";
    let cells = time "table3+5" (fun () -> Fetch_eval.Exp_tools.run ~scale:!scale ()) in
    print_string (Fetch_eval.Exp_tools.render cells)
  end;
  if want "table4" then begin
    banner "Table IV — stack-height analyses vs CFI";
    let table = time "table4" (fun () -> Fetch_eval.Exp_heights.run ~scale:!scale ()) in
    print_string (Fetch_eval.Exp_heights.render table)
  end;
  if want "ablation" then begin
    banner "Ablation — Algorithm 1 height sources (SV-B design choice)";
    let cells = time "ablation" (fun () -> Fetch_eval.Exp_ablation.run ~scale:!scale ()) in
    print_string (Fetch_eval.Exp_ablation.render cells)
  end;
  if want "adversarial" then begin
    banner "Adversarial scenarios — per-scenario robustness (F1 vs clean)";
    let t =
      time "adversarial" (fun () ->
          Fetch_eval.Exp_adversarial.run ~scale:!scale ())
    in
    print_string (Fetch_eval.Exp_adversarial.render t)
  end;
  if want "pe" then begin
    banner "SVII-B — generality: x64 PE exception directory coverage";
    let t = time "pe" (fun () -> Fetch_eval.Exp_pe.run ~scale:!scale ()) in
    print_string (Fetch_eval.Exp_pe.render t)
  end;
  if want "perf" then begin
    banner "Pipeline perf snapshot — per-stage wall clock over the corpus";
    time "perf" perf
  end;
  if want "serve" then begin
    banner "Serve daemon — cold vs warm throughput, content-addressed cache";
    time "serve" serve_bench
  end;
  if want "micro" then micro ()
