(* Tests for the Fetch_obs instrumentation layer: clock behaviour,
   counter registration/reset, span nesting and timing monotonicity, the
   JSON-lines sink's exact output, and an instrumented pipeline run on a
   synthetic binary. *)

open Fetch_synth
module Obs = Fetch_obs.Trace
module Report = Fetch_obs.Report
module Clock = Fetch_obs.Clock
module Law = Fetch_obs.Law

let check = Alcotest.check

let test_clock () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  check Alcotest.bool "clock is monotonic" true (Int64.compare b a >= 0);
  let x, dt = Clock.time_s (fun () -> 41 + 1) in
  check Alcotest.int "time_s returns the result" 42 x;
  check Alcotest.bool "elapsed time is non-negative" true (dt >= 0.0)

let test_counters () =
  let c = Obs.counter "test.obs.counter" in
  let c' = Obs.counter "test.obs.counter" in
  check Alcotest.bool "same name interns to the same counter" true (c == c');
  Obs.incr c;
  check Alcotest.int "incr outside a run is a no-op" 0 (Obs.value c);
  Obs.start ();
  Obs.incr c;
  Obs.incr c;
  Obs.add c 3;
  let h = Obs.histogram "test.obs.hist" in
  Obs.observe h 5;
  Obs.observe h 1;
  let r = Obs.stop () in
  check Alcotest.int "counter recorded" 5 (List.assoc "test.obs.counter" r.Obs.counters);
  let hs = List.assoc "test.obs.hist" r.Obs.histograms in
  check Alcotest.int "hist count" 2 hs.Obs.count;
  check Alcotest.int "hist sum" 6 hs.Obs.sum;
  check Alcotest.int "hist min" 1 hs.Obs.min;
  check Alcotest.int "hist max" 5 hs.Obs.max;
  Obs.incr c;
  check Alcotest.int "incr after stop is a no-op" 5 (Obs.value c);
  Obs.start ();
  let r2 = Obs.stop () in
  check Alcotest.int "start resets counters" 0
    (List.assoc "test.obs.counter" r2.Obs.counters);
  check Alcotest.int "start resets histograms" 0
    (List.assoc "test.obs.hist" r2.Obs.histograms).Obs.count

let test_span_nesting () =
  let v, r =
    Obs.with_run (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "inner1" (fun () ->
                ignore (Sys.opaque_identity (List.init 1000 (fun i -> i * i))));
            Obs.span "inner2" (fun () -> ());
            7))
  in
  check Alcotest.int "with_run returns the result" 7 v;
  check (Alcotest.list Alcotest.string) "spans in pre-order"
    [ "outer"; "inner1"; "inner2" ]
    (List.map (fun (s : Obs.span) -> s.Obs.name) r.Obs.spans);
  check (Alcotest.list Alcotest.int) "nesting depths" [ 0; 1; 1 ]
    (List.map (fun (s : Obs.span) -> s.Obs.depth) r.Obs.spans);
  let span name = List.find (fun (s : Obs.span) -> s.Obs.name = name) r.Obs.spans in
  let outer = span "outer" and i1 = span "inner1" and i2 = span "inner2" in
  List.iter
    (fun (s : Obs.span) ->
      check Alcotest.bool (s.Obs.name ^ " start non-negative") true
        (Int64.compare s.Obs.start_ns 0L >= 0);
      check Alcotest.bool (s.Obs.name ^ " duration non-negative") true
        (Int64.compare s.Obs.dur_ns 0L >= 0))
    r.Obs.spans;
  check Alcotest.bool "children start after parent" true
    (Int64.compare i1.Obs.start_ns outer.Obs.start_ns >= 0);
  check Alcotest.bool "inner2 starts after inner1" true
    (Int64.compare i2.Obs.start_ns i1.Obs.start_ns >= 0);
  check Alcotest.bool "parent duration covers children" true
    (Int64.compare outer.Obs.dur_ns (Int64.add i1.Obs.dur_ns i2.Obs.dur_ns) >= 0)

let test_span_exception_safety () =
  let (), r =
    Obs.with_run (fun () ->
        (try Obs.span "boom" (fun () -> failwith "bang") with Failure _ -> ());
        Obs.span "after" (fun () -> ()))
  in
  check (Alcotest.list Alcotest.string) "raising span still recorded"
    [ "boom"; "after" ]
    (List.map (fun (s : Obs.span) -> s.Obs.name) r.Obs.spans);
  check (Alcotest.list Alcotest.int) "depth restored after the exception"
    [ 0; 0 ]
    (List.map (fun (s : Obs.span) -> s.Obs.depth) r.Obs.spans);
  check Alcotest.bool "recorder disabled after with_run" false (Obs.enabled ())

let golden_report : Obs.report =
  {
    Obs.spans =
      [
        {
          Obs.name = "pipeline";
          depth = 0;
          start_ns = 0L;
          dur_ns = 1500L;
          run = 1;
          args = [];
        };
        {
          Obs.name = "say \"hi\"\n";
          depth = 1;
          start_ns = 10L;
          dur_ns = 2L;
          run = 1;
          args = [ ("round", "3") ];
        };
      ];
    counters = [ ("xref.accepted", 3) ];
    histograms =
      [ ("recursive.block_insns", Obs.hist_stats_of_values [ 3; 4 ]) ];
  }

let test_json_lines_golden () =
  let expected =
    "{\"type\":\"span\",\"name\":\"pipeline\",\"depth\":0,\"start_ns\":0,\"dur_ns\":1500,\"run\":1}\n"
    ^ "{\"type\":\"span\",\"name\":\"say \\\"hi\\\"\\n\",\"depth\":1,\"start_ns\":10,\"dur_ns\":2,\"run\":1,\"args\":{\"round\":\"3\"}}\n"
    ^ "{\"type\":\"counter\",\"name\":\"xref.accepted\",\"value\":3}\n"
    ^ "{\"type\":\"histogram\",\"name\":\"recursive.block_insns\",\"count\":2,\"sum\":7,\"min\":3,\"max\":4,\"p50\":3,\"p90\":4,\"p99\":4,\"buckets\":[[2,1],[3,1]]}\n"
  in
  check Alcotest.string "golden JSON lines" expected (Report.json_lines golden_report)

let test_chrome_trace_golden () =
  let expected =
    "{\"traceEvents\":[\n"
    ^ "{\"name\":\"pipeline\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1.500,\"pid\":0,\"tid\":1},\n"
    ^ "{\"name\":\"say \\\"hi\\\"\\n\",\"ph\":\"X\",\"ts\":0.010,\"dur\":0.002,\"pid\":0,\"tid\":1,\"args\":{\"round\":\"3\"}},\n"
    ^ "{\"name\":\"xref.accepted\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"value\":3}},\n"
    ^ "{\"name\":\"recursive.block_insns\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{\"count\":2,\"sum\":7,\"min\":3,\"max\":4,\"p50\":3,\"p90\":4,\"p99\":4}}\n"
    ^ "],\"displayTimeUnit\":\"ms\"}\n"
  in
  check Alcotest.string "golden Chrome trace" expected
    (Report.chrome_trace golden_report)

let test_percentiles () =
  check Alcotest.int "empty histogram percentile is 0" 0
    (Obs.percentile Obs.empty_hist_stats 50.0);
  let one = Obs.hist_stats_of_values [ 17 ] in
  List.iter
    (fun p ->
      check Alcotest.int
        (Printf.sprintf "single value: p%g exact" p)
        17 (Obs.percentile one p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  let vs = List.init 1000 (fun i -> i + 1) in
  let h = Obs.hist_stats_of_values vs in
  check Alcotest.int "p100 is the exact max" 1000 (Obs.percentile h 100.0);
  List.iter
    (fun p ->
      let est = Obs.percentile h p in
      let exact = int_of_float (Float.ceil (p /. 100.0 *. 1000.0)) in
      let exact = if exact < 1 then 1 else exact in
      check Alcotest.bool
        (Printf.sprintf "p%g within observed range" p)
        true
        (est >= h.Obs.min && est <= h.Obs.max);
      (* log-2 buckets: the estimate is within a factor of 2 of truth *)
      check Alcotest.bool
        (Printf.sprintf "p%g within 2x of exact %d (got %d)" p exact est)
        true
        (est <= 2 * exact && exact <= 2 * est))
    [ 50.0; 90.0; 99.0 ]

let test_span_args () =
  let (), r =
    Obs.with_run (fun () ->
        Obs.span ~args:[ ("k", "v") ] "with_args" (fun () ->
            Obs.set_arg "late" "1";
            Obs.set_arg "late" "2" (* overwrite *));
        Obs.span "plain" (fun () -> Obs.set_arg "x" "y"))
  in
  let span name =
    List.find (fun (s : Obs.span) -> s.Obs.name = name) r.Obs.spans
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "open args plus set_arg, last overwrite wins"
    [ ("k", "v"); ("late", "2") ]
    (span "with_args").Obs.args;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "set_arg lands on the innermost open span"
    [ ("x", "y") ]
    (span "plain").Obs.args;
  check Alcotest.bool "runs get distinct positive ids" true
    ((span "plain").Obs.run > 0 && (span "plain").Obs.run = (span "with_args").Obs.run)

(* QCheck: merging per-run reports preserves every histogram bucket
   count exactly, and percentiles of the merged histogram stay inside
   the union of the observed ranges. *)
let prop_merge_preserves_histograms =
  let gen = QCheck.(pair (small_list (int_bound 10_000)) (small_list (int_bound 10_000))) in
  QCheck.Test.make ~name:"Trace.merge preserves histogram buckets" ~count:200 gen
    (fun (xs, ys) ->
      let ha = Obs.hist_stats_of_values xs
      and hb = Obs.hist_stats_of_values ys in
      let ra = { Obs.spans = []; counters = []; histograms = [ ("h", ha) ] }
      and rb = { Obs.spans = []; counters = []; histograms = [ ("h", hb) ] } in
      let m = List.assoc "h" (Obs.merge [ ra; rb ]).Obs.histograms in
      let all = Obs.hist_stats_of_values (xs @ ys) in
      let buckets_equal =
        Array.for_all2 ( = ) m.Obs.buckets all.Obs.buckets
      in
      let counts_ok =
        m.Obs.count = all.Obs.count && m.Obs.sum = all.Obs.sum
      in
      let percentiles_ok =
        m.Obs.count = 0
        || List.for_all
             (fun p ->
               let v = Obs.percentile m p in
               v >= m.Obs.min && v <= m.Obs.max)
             [ 0.0; 50.0; 90.0; 99.0; 100.0 ]
      in
      buckets_equal && counts_ok && percentiles_ok)

(* Instrumented end-to-end pipeline run: the same corpus shape as
   test_core, asserting the stage spans exist and the key counters are
   populated. *)
let spec =
  {
    Gen.default_spec with
    n_funcs = 50;
    n_asm_called = 2;
    n_asm_tailonly = 1;
    n_asm_pointer = 2;
    n_asm_code_ptr = 1;
    n_asm_unreachable = 1;
  }

let test_pipeline_instrumented () =
  let profile = Profile.make Profile.Synthgcc Profile.O2 in
  let b = Link.build_random ~profile ~seed:2024 spec in
  let r, rep = Obs.with_run (fun () -> Fetch_core.Pipeline.run b.image) in
  let span_names =
    List.sort_uniq compare (List.map (fun (s : Obs.span) -> s.Obs.name) rep.Obs.spans)
  in
  List.iter
    (fun n -> check Alcotest.bool ("span " ^ n ^ " present") true (List.mem n span_names))
    [ "pipeline"; "seeds"; "recursive"; "xref"; "fde_callconv_check"; "tailcall" ];
  let c n =
    match List.assoc_opt n rep.Obs.counters with
    | Some v -> v
    | None -> Alcotest.failf "counter %s not registered" n
  in
  List.iter
    (fun n -> check Alcotest.bool (n ^ " populated") true (c n > 0))
    [
      "pipeline.seeds.fde";
      "pipeline.seeds.final";
      "recursive.insns_decoded";
      "recursive.functions_disassembled";
      "recursive.worklist_rounds";
      "xref.candidates_scanned";
      "xref.accepted";
      "tailcall.pairs_examined";
      "tailcall.tail_calls";
    ];
  (* the four §IV-E rejection reasons and Algorithm 1's three rules are
     all registered and reported *)
  List.iter
    (fun n -> check Alcotest.bool (n ^ " registered") true (List.mem_assoc n rep.Obs.counters))
    [
      "xref.reject.invalid_opcode";
      "xref.reject.mid_instruction";
      "xref.reject.into_function";
      "xref.reject.callconv";
      "tailcall.reject.cfa_height";
      "tailcall.reject.jump_only_refs";
      "tailcall.reject.callconv";
    ];
  (* every scanned candidate is either accepted or rejected for exactly
     one of the four reasons, every examined pair likewise *)
  check Alcotest.(list string) "counter laws hold" []
    (List.map (fun (l, _, _) -> Law.to_string l) (Law.broken rep.Obs.counters));
  (* the decode histogram covers every decoded instruction *)
  let bi = List.assoc "recursive.block_insns" rep.Obs.histograms in
  check Alcotest.int "block histogram sums to insns decoded"
    (c "recursive.insns_decoded") bi.Obs.sum;
  (* final seed set surfaced on the result (the old code dropped it) *)
  check Alcotest.bool "no broken FDEs in this corpus" true (r.invalid_fde_starts = []);
  check Alcotest.int "pipeline.seeds.final matches result"
    (List.length r.final_seeds)
    (c "pipeline.seeds.final");
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "FDE start %#x in final seeds" s) true
        (List.mem s r.final_seeds))
    r.loaded.fde_starts;
  check Alcotest.int "final seeds = FDE starts + accepted pointers"
    (List.length (List.sort_uniq compare r.loaded.fde_starts) + c "xref.accepted")
    (List.length r.final_seeds)

(* ---- bench snapshot codec and regression gate ---- *)

module Gate = Fetch_obs.Bench_gate

let gate_snapshot () =
  {
    Gate.schema = Gate.schema_current;
    scale = 0.02;
    binaries = 10;
    domains = 2;
    host = Some (Gate.this_host ());
    seq_wall_s = 1.5;
    par_wall_s = 0.8;
    pipeline_total_ms = 1200.0;
    stages =
      [
        { Gate.s_name = "pipeline"; s_calls = 10; s_total_ms = 1200.0; s_mean_ms = 120.0 };
        { Gate.s_name = "xref"; s_calls = 12; s_total_ms = 900.0; s_mean_ms = 90.0 };
        { Gate.s_name = "noise"; s_calls = 10; s_total_ms = 0.5; s_mean_ms = 0.05 };
      ];
    counters = [ ("xref.accepted", 92); ("tailcall.merges", 218) ];
    histograms = [ ("xref.rounds", Obs.hist_stats_of_values [ 1; 1; 2; 7 ]) ];
  }

let test_bench_gate_roundtrip () =
  let s = gate_snapshot () in
  match Gate.of_json_string (Gate.to_json s) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok s' ->
      check Alcotest.string "schema" s.Gate.schema s'.Gate.schema;
      check Alcotest.int "binaries" s.Gate.binaries s'.Gate.binaries;
      check Alcotest.int "domains" s.Gate.domains s'.Gate.domains;
      check Alcotest.bool "host preserved" true (s'.Gate.host = s.Gate.host);
      check Alcotest.int "stages" (List.length s.Gate.stages)
        (List.length s'.Gate.stages);
      check Alcotest.bool "counters preserved" true
        (s'.Gate.counters = s.Gate.counters);
      let h = List.assoc "xref.rounds" s'.Gate.histograms in
      let h0 = List.assoc "xref.rounds" s.Gate.histograms in
      check Alcotest.int "hist count" h0.Obs.count h.Obs.count;
      check Alcotest.int "hist sum" h0.Obs.sum h.Obs.sum;
      check Alcotest.bool "hist buckets preserved" true
        (Array.for_all2 ( = ) h0.Obs.buckets h.Obs.buckets)

(* The committed baseline's law counters (scale 0.02): the gate must
   flag a broken law even when the baseline carries the same drift. *)
let test_bench_gate_laws () =
  check Alcotest.(list string) "declared laws"
    [
      "tailcall.merges ≤ Σ tailcall.reject.*";
      "tailcall.pairs_examined = tailcall.tail_calls + Σ tailcall.reject.*";
      "xref.candidates_scanned = xref.accepted + Σ xref.reject.*";
    ]
    (List.sort compare (List.map Law.to_string (Law.all ())));
  let counters =
    [
      ("xref.candidates_scanned", 5171);
      ("xref.accepted", 92);
      ("xref.reject.invalid_opcode", 0);
      ("xref.reject.mid_instruction", 1249);
      ("xref.reject.into_function", 3830);
      ("xref.reject.callconv", 0);
      ("tailcall.pairs_examined", 766);
      ("tailcall.tail_calls", 548);
      ("tailcall.merges", 218);
      ("tailcall.reject.cfa_height", 187);
      ("tailcall.reject.jump_only_refs", 31);
      ("tailcall.reject.callconv", 0);
    ]
  in
  let b = { (gate_snapshot ()) with Gate.counters } in
  check Alcotest.int "the baseline obeys every law" 0
    (List.length (Gate.check ~baseline:b ~current:b ()));
  let tamper name =
    let s =
      {
        b with
        Gate.counters =
          List.map (fun (n, v) -> (n, if n = name then v + 1 else v)) counters;
      }
    in
    List.map
      (fun (i : Gate.issue) -> (i.what, String.sub i.detail 0 4))
      (Gate.check ~baseline:s ~current:s ())
  in
  check Alcotest.(list (pair string string)) "xref reject tampered on both sides"
    [ ("law", "xref") ]
    (tamper "xref.reject.callconv");
  check Alcotest.(list (pair string string)) "tailcall reject tampered on both sides"
    [ ("law", "tail") ]
    (tamper "tailcall.reject.jump_only_refs");
  (* merges are not a part of the tail-call law, but they are bounded by
     its rejections, which the baseline meets with equality *)
  check Alcotest.(list (pair string string)) "merges tampered on both sides"
    [ ("law", "tail") ]
    (tamper "tailcall.merges")

(* An inequality law is judged as one: the bound may be met or beaten,
   not exceeded, and a family with no counter at all is not judged. *)
let test_law_inequality () =
  let merges v rejects =
    List.map
      (fun (l, total, sum) -> (Law.to_string l, total, sum))
      (Law.broken
         (("tailcall.merges", v)
         :: List.mapi (fun i r -> (Printf.sprintf "tailcall.reject.r%d" i, r)) rejects))
  in
  let law = "tailcall.merges ≤ Σ tailcall.reject.*" in
  let broken = Alcotest.(list (triple string int int)) in
  check broken "below the bound" [] (merges 2 [ 1; 2 ]);
  check broken "at the bound" [] (merges 3 [ 1; 2 ]);
  check broken "above the bound" [ (law, 4, 3) ] (merges 4 [ 1; 2 ]);
  check broken "no rejection counter: not judged" [] (merges 4 [])

let test_bench_gate_check () =
  let b = gate_snapshot () in
  check Alcotest.int "identical snapshots pass" 0
    (List.length (Gate.check ~baseline:b ~current:b ()));
  (* detection drift: any counter change fails, exactly *)
  let drift =
    { b with Gate.counters = [ ("xref.accepted", 91); ("tailcall.merges", 218) ] }
  in
  check Alcotest.int "counter drift fails" 1
    (List.length (Gate.check ~baseline:b ~current:drift ()));
  check Alcotest.int "missing counter fails" 1
    (List.length
       (Gate.check ~baseline:b
          ~current:{ b with Gate.counters = [ ("tailcall.merges", 218) ] }
          ()));
  (* new counters in current only are new instrumentation: pass *)
  let extra =
    { b with Gate.counters = b.Gate.counters @ [ ("brand.new", 1) ] }
  in
  check Alcotest.int "extra current counters pass" 0
    (List.length (Gate.check ~baseline:b ~current:extra ()));
  (* a stage regression beyond tolerance fails; the pipeline stage mean
     is the speed normalizer, so inflate xref only *)
  let slow =
    {
      b with
      Gate.stages =
        [
          { Gate.s_name = "pipeline"; s_calls = 10; s_total_ms = 1200.0; s_mean_ms = 120.0 };
          { Gate.s_name = "xref"; s_calls = 12; s_total_ms = 2000.0; s_mean_ms = 200.0 };
          { Gate.s_name = "noise"; s_calls = 10; s_total_ms = 5.0; s_mean_ms = 0.5 };
        ];
    }
  in
  let issues = Gate.check ~tolerance:0.5 ~baseline:b ~current:slow () in
  check Alcotest.int "xref regression fails (noise stage skipped)" 1
    (List.length issues);
  (* the judged table lists every baseline stage with its limit *)
  check
    Alcotest.(list (pair string (pair (option (float 1e-9)) (option (float 1e-9)))))
    "judged stages: mean and limit"
    [
      ("pipeline", (Some 120.0, Some 180.0));
      ("xref", (Some 200.0, Some 135.0));
      ("noise", (Some 0.5, None));
    ]
    (List.map
       (fun (j : Gate.judged) -> (j.j_name, (j.j_mean, j.j_limit)))
       (Gate.judge ~tolerance:0.5 ~baseline:b ~current:slow ()));
  (* a uniformly 2x-slower machine passes: normalisation cancels it *)
  let half_speed =
    {
      b with
      Gate.stages =
        List.map
          (fun st ->
            { st with Gate.s_total_ms = st.Gate.s_total_ms *. 2.0;
              s_mean_ms = st.Gate.s_mean_ms *. 2.0 })
          b.Gate.stages;
    }
  in
  check Alcotest.int "uniform slowdown passes (speed-adjusted)" 0
    (List.length (Gate.check ~baseline:b ~current:half_speed ()));
  check Alcotest.int "binary count mismatch fails" 1
    (List.length
       (Gate.check ~baseline:b ~current:{ b with Gate.binaries = 11 } ()
       |> List.filter (fun (i : Gate.issue) -> i.what = "corpus")))

(* ---- decision ledger ---- *)

module Prov = Fetch_obs.Provenance

let test_provenance_recorder () =
  Prov.emit ~ev:"noop" ~addr:1 [];
  check Alcotest.bool "emit outside a run records nothing" false
    (Prov.enabled ());
  let (), events =
    Prov.with_run (fun () ->
        check Alcotest.bool "enabled inside a run" true (Prov.enabled ());
        Prov.emit ~ev:"seed.fde" ~addr:0x1000 [];
        Prov.with_scope [ ("round", Prov.I 2) ] (fun () ->
            Prov.emit ~ev:"xref.accept" ~addr:0x2000
              [ ("via", Prov.S "data"); ("site", Prov.I 0x3000) ]);
        Prov.emit ~ev:"verdict.start" ~addr:0x1000 [])
  in
  check Alcotest.int "three events in order" 3 (List.length events);
  let accept = List.nth events 1 in
  check Alcotest.string "event id" "xref.accept" accept.Prov.ev;
  check Alcotest.bool "scope fields appended" true
    (List.assoc "round" accept.Prov.fields = Prov.I 2);
  check Alcotest.int "subject query" 2
    (List.length (Prov.about 0x1000 events));
  (* 0x3000 appears only as an operand of the accept event *)
  check Alcotest.int "mention query" 1
    (List.length (Prov.mentioning 0x3000 events));
  check Alcotest.bool "recorder off after with_run" false (Prov.enabled ())

let test_provenance_json_roundtrip () =
  let events =
    [
      { Prov.ev = "xref.reject"; addr = 0x4010;
        fields = [ ("reason", Prov.S "callconv"); ("viol_at", Prov.I 0x4018);
                   ("viol_reg", Prov.S "rbx"); ("round", Prov.I 3) ] };
      { Prov.ev = "alg1.reject"; addr = 0x5000;
        fields = [ ("rule", Prov.S "cfa_height"); ("height", Prov.I (-8)) ] };
      { Prov.ev = "seed.fde"; addr = 0x1000; fields = [] };
    ]
  in
  List.iter
    (fun e ->
      match Fetch_util.Json.parse (Prov.to_json e) with
      | Error err -> Alcotest.failf "event JSON does not parse: %s" err
      | Ok j -> (
          match Prov.of_json j with
          | Error err -> Alcotest.failf "event does not decode: %s" err
          | Ok e' ->
              check Alcotest.string "ev survives" e.Prov.ev e'.Prov.ev;
              check Alcotest.int "addr survives" e.Prov.addr e'.Prov.addr;
              check Alcotest.bool "fields survive in order" true
                (e'.Prov.fields = e.Prov.fields);
              check Alcotest.string "re-encoding is identical" (Prov.to_json e)
                (Prov.to_json e')))
    events;
  (* JSONL: one line per event, each parseable *)
  let lines =
    String.split_on_char '\n' (Prov.to_json_lines events)
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per event" (List.length events)
    (List.length lines);
  List.iter
    (fun l ->
      match Fetch_util.Json.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "JSONL line does not parse: %s" e)
    lines

(* One decision stream: on the three ledger-golden draws, run with
   lint under both recorders, every declared decision's events (its id
   with its fixed leading fields) number exactly its counter, and every
   other event is one of the counterless ones. *)
let test_ledger_folds_to_counters () =
  let rec leads fixed fields =
    match (fixed, fields) with
    | [], _ -> true
    | f :: fixed, g :: fields -> f = g && leads fixed fields
    | _ :: _, [] -> false
  in
  let counterless = [ "recursive.discover"; "verdict.start"; "pipeline.reseed" ] in
  let decisions = Prov.decisions () in
  check Alcotest.int "declared decisions" 22 (List.length decisions);
  List.iter
    (fun name ->
      let b = Ledger_draws.build name in
      let ((), events), rep =
        Obs.with_run (fun () ->
            Prov.with_run (fun () ->
                match Fetch_core.Pipeline.run_bytes b.raw with
                | Ok r -> ignore (Fetch_core.Lint.run r)
                | Error e -> failwith e))
      in
      let of_decision (d : Prov.decision) (e : Prov.event) =
        e.ev = d.ev && leads d.fixed e.fields
      in
      List.iter
        (fun (d : Prov.decision) ->
          check Alcotest.int
            (Printf.sprintf "%s: %s events" name d.counter)
            (List.assoc d.counter rep.Obs.counters)
            (List.length (List.filter (of_decision d) events)))
        decisions;
      (* the counts the ledger folds to obey every law they can be judged
         by (the merge bound; the other totals are plain counters) *)
      let folded =
        List.map
          (fun (d : Prov.decision) ->
            (d.counter, List.length (List.filter (of_decision d) events)))
          decisions
      in
      check Alcotest.(list string) (name ^ ": folded counts obey the laws") []
        (List.map (fun (l, _, _) -> Law.to_string l) (Law.broken folded));
      check Alcotest.(list string) (name ^ ": undecided events are counterless") []
        (List.filter_map
           (fun (e : Prov.event) ->
             if List.exists (fun d -> of_decision d e) decisions
                || List.mem e.ev counterless
             then None
             else Some e.ev)
           events))
    Ledger_draws.names

let test_provenance_explain () =
  let events =
    [
      { Prov.ev = "seed.fde"; addr = 0x1000; fields = [] };
      { Prov.ev = "alg1.merge"; addr = 0x2000;
        fields = [ ("parent", Prov.I 0x1000); ("site", Prov.I 0x1080) ] };
      { Prov.ev = "verdict.start"; addr = 0x1000; fields = [] };
    ]
  in
  let kept = Prov.explain ~addr:0x1000 events in
  check Alcotest.bool "kept start verdict" true
    (String.length kept > 0
    && String.ends_with ~suffix:"verdict: detected function start\n" kept);
  let merged = Prov.explain ~addr:0x2000 events in
  check Alcotest.bool "merged part verdict" true
    (String.ends_with
       ~suffix:"verdict: merged into another function (non-contiguous part)\n"
       merged);
  let unknown = Prov.explain ~addr:0x9999 events in
  check Alcotest.bool "unknown address verdict" true
    (String.ends_with ~suffix:"verdict: not a candidate\n" unknown)

let suite =
  [
    Alcotest.test_case "monotonic clock" `Quick test_clock;
    Alcotest.test_case "counter registration and reset" `Quick test_counters;
    Alcotest.test_case "span nesting and monotonic timing" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "JSON-lines golden output" `Quick test_json_lines_golden;
    Alcotest.test_case "Chrome trace golden output" `Quick test_chrome_trace_golden;
    Alcotest.test_case "histogram percentiles" `Quick test_percentiles;
    Alcotest.test_case "span args and set_arg" `Quick test_span_args;
    QCheck_alcotest.to_alcotest prop_merge_preserves_histograms;
    Alcotest.test_case "bench snapshot JSON roundtrip" `Quick test_bench_gate_roundtrip;
    Alcotest.test_case "bench regression gate" `Quick test_bench_gate_check;
    Alcotest.test_case "bench gate: counter laws" `Quick test_bench_gate_laws;
    Alcotest.test_case "provenance recorder and queries" `Quick test_provenance_recorder;
    Alcotest.test_case "provenance JSON roundtrip" `Quick test_provenance_json_roundtrip;
    Alcotest.test_case "provenance explain" `Quick test_provenance_explain;
    Alcotest.test_case "ledger folds to the counters" `Quick
      test_ledger_folds_to_counters;
    Alcotest.test_case "instrumented pipeline run" `Quick test_pipeline_instrumented;
    Alcotest.test_case "law: an inequality" `Quick test_law_inequality;
  ]
