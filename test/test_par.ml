(* Tests for the parallel runtime: domain-pool result ordering and
   failure isolation, per-domain trace-context isolation and merge,
   batch-analysis determinism across domain counts (including the
   failure-isolation path), and parallel corpus iteration matching the
   sequential fold. *)

open Fetch_synth
module Pool = Fetch_par.Pool
module Obs = Fetch_obs.Trace
module Batch = Fetch_core.Batch

let check = Alcotest.check

(* --- pool --- *)

let test_pool_map_order () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          check Alcotest.int "pool size" domains (Pool.size pool);
          let results = Pool.map pool (fun i -> i * i) (List.init 20 Fun.id) in
          check
            (Alcotest.list Alcotest.int)
            (Printf.sprintf "%d domains: results in submission order" domains)
            (List.init 20 (fun i -> i * i))
            (List.map (function Ok v -> v | Error _ -> -1) results)))
    [ 1; 2; 4 ]

let test_pool_failure_isolation () =
  Pool.with_pool ~domains:4 (fun pool ->
      let results =
        Pool.map pool
          ~label:(fun _ i -> "task-" ^ string_of_int i)
          (fun i -> if i mod 5 = 3 then failwith "boom" else 2 * i)
          (List.init 10 Fun.id)
      in
      List.iteri
        (fun i r ->
          if i mod 5 = 3 then
            match r with
            | Error (f : Pool.failure) ->
                check Alcotest.int "failure index" i f.f_index;
                check Alcotest.string "failure label"
                  ("task-" ^ string_of_int i)
                  f.f_label;
                check Alcotest.bool "failure message" true
                  (String.length f.f_exn > 0
                  && String.lowercase_ascii f.f_exn <> "")
            | Ok _ -> Alcotest.failf "task %d should have failed" i
          else
            match r with
            | Ok v -> check Alcotest.int "survivor result" (2 * i) v
            | Error f ->
                Alcotest.failf "task %d infected by neighbour failure: %s" i
                  (Pool.failure_to_string f))
        results)

let test_pool_reuse () =
  Pool.with_pool ~domains:2 (fun pool ->
      let a = Pool.map pool (fun i -> i + 1) [ 1; 2; 3 ] in
      let b = Pool.map pool (fun i -> i * 10) [ 4; 5 ] in
      check Alcotest.int "first batch" 3 (List.length a);
      check
        (Alcotest.list Alcotest.int)
        "second batch on the same pool" [ 40; 50 ]
        (List.map (function Ok v -> v | Error _ -> -1) b))

(* --- per-domain trace contexts --- *)

let c_iso = Obs.counter "test.par.iso"

let test_trace_domain_isolation () =
  (* two domains record concurrently; each report sees only its own
     increments, and the spawning domain's context is untouched *)
  let record n =
    let (), report =
      Obs.with_run (fun () ->
          Obs.span "iso" (fun () ->
              for _ = 1 to n do
                Obs.incr c_iso
              done))
    in
    report
  in
  let d1 = Domain.spawn (fun () -> record 3) in
  let d2 = Domain.spawn (fun () -> record 7) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check Alcotest.int "domain 1 sees its own increments" 3
    (List.assoc "test.par.iso" r1.Obs.counters);
  check Alcotest.int "domain 2 sees its own increments" 7
    (List.assoc "test.par.iso" r2.Obs.counters);
  check Alcotest.bool "spawning domain has no live run" false (Obs.enabled ());
  check Alcotest.int "spawning domain context untouched" 0 (Obs.value c_iso);
  let merged = Obs.merge [ r1; r2 ] in
  check Alcotest.int "merged counter is the sum" 10
    (List.assoc "test.par.iso" merged.Obs.counters);
  check Alcotest.int "merged spans concatenated" 2
    (List.length merged.Obs.spans)

(* --- batch determinism across domain counts --- *)

let raw_binary ?(cxx = false) seed =
  let profile = Profile.make Profile.Synthgcc Profile.O2 in
  let spec = { Gen.default_spec with n_funcs = 25; cxx } in
  (Link.build_random ~profile ~seed spec).raw

let batch_items () =
  [
    Batch.item_of_raw "bin-101" (raw_binary 101);
    Batch.item_of_raw "bin-102" (raw_binary ~cxx:true 102);
    (* failure-isolation paths: a task raising mid-analysis and a
       binary the ELF decoder rejects *)
    {
      Batch.id = "crasher";
      load = (fun () -> failwith "synthetic mid-pipeline crash");
    };
    Batch.item_of_raw "corrupt" "\x7fELF\x02\x01\x01 truncated";
    Batch.item_of_raw "bin-103" (raw_binary 103);
  ]

let counter r name =
  match List.assoc_opt name r.Batch.merged.Obs.counters with
  | Some v -> v
  | None -> Alcotest.failf "merged counter %s missing" name

let test_batch_determinism () =
  let items = batch_items () in
  let runs = List.map (fun d -> (d, Batch.run ~domains:d items)) [ 1; 2; 4 ] in
  let _, r1 = List.hd runs in
  check Alcotest.int "three successes" 3 r1.Batch.n_ok;
  check Alcotest.int "two isolated failures" 2 r1.Batch.n_failed;
  (* the deterministic JSON rendering is byte-identical at every domain
     count — per-binary starts, diagnostics, lint findings and merged
     counter totals included *)
  let golden = Batch.json_lines ~timings:false r1 in
  List.iter
    (fun (d, r) ->
      check Alcotest.string
        (Printf.sprintf "deterministic report at %d domains" d)
        golden
        (Batch.json_lines ~timings:false r);
      check Alcotest.int
        (Printf.sprintf "domain count recorded (%d)" d)
        d r.Batch.domains)
    (List.tl runs);
  (* failures attributed to the right binaries, successes intact *)
  (match List.assoc "crasher" r1.Batch.results with
  | Error f ->
      check Alcotest.bool "crash message captured" true
        (String.length f.Pool.f_exn > 0)
  | Ok _ -> Alcotest.fail "crasher should fail");
  (match List.assoc "corrupt" r1.Batch.results with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt ELF should fail");
  (match List.assoc "bin-103" r1.Batch.results with
  | Ok a ->
      check Alcotest.bool "starts detected after failing neighbours" true
        (a.Batch.summary.starts <> [])
  | Error f -> Alcotest.failf "bin-103 failed: %s" (Pool.failure_to_string f))

let broken_laws (rep : Obs.report) =
  List.map
    (fun (l, total, parts) ->
      Printf.sprintf "%s: %d vs %d" (Fetch_obs.Law.to_string l) total parts)
    (Fetch_obs.Law.broken rep.Obs.counters)

let test_batch_merged_invariants () =
  (* the counter laws must survive a merged parallel run: every scanned
     candidate is accepted or rejected exactly once *)
  let r = Batch.run ~domains:4 (batch_items ()) in
  check Alcotest.(list string) "counter laws on the merged report" []
    (broken_laws r.Batch.merged);
  check Alcotest.bool "merged seeds populated" true
    (counter r "pipeline.seeds.fde" > 0);
  (* merged pipeline span count = one per successful binary *)
  let aggs = Fetch_obs.Report.aggregate_spans r.Batch.merged in
  let pipeline_calls =
    List.fold_left
      (fun acc (a : Fetch_obs.Report.agg) ->
        if a.agg_name = "pipeline" then acc + a.agg_calls else acc)
      0 aggs
  in
  check Alcotest.int "one pipeline span per success" r.Batch.n_ok pipeline_calls

let prop_batch_deterministic =
  QCheck.Test.make ~name:"batch reports identical across domain counts"
    ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      let items =
        [
          Batch.item_of_raw "a" (raw_binary (3000 + seed));
          Batch.item_of_raw "b" (raw_binary ~cxx:(seed mod 2 = 0) (4000 + seed));
        ]
      in
      let a = Batch.run ~domains:1 items in
      let b = Batch.run ~domains:2 items in
      Batch.json_lines ~timings:false a = Batch.json_lines ~timings:false b)

(* --- parallel corpus iteration --- *)

let test_corpus_par_matches_fold () =
  let only = [ "Findutils-4.4" ] in
  let fingerprint (b : Fetch_eval.Corpus.binary) =
    (b.id, List.length b.built.truth.fns, String.length b.built.raw)
  in
  let seq =
    Fetch_eval.Corpus.fold_selfbuilt ~scale:0.01 ~only ~init:[] (fun acc b ->
        fingerprint b :: acc)
    |> List.rev
  in
  let par =
    Pool.with_pool ~domains:2 (fun pool ->
        Fetch_eval.Corpus.map_selfbuilt_par pool ~scale:0.01 ~only fingerprint)
    |> List.map (function
         | Ok v -> v
         | Error f -> Alcotest.failf "corpus job failed: %s" (Pool.failure_to_string f))
  in
  check Alcotest.int "8 binaries (1 program x 2 compilers x 4 opts)" 8
    (List.length seq);
  check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.int Alcotest.int))
    "parallel corpus matches the sequential fold, in order" seq par

(* --- streaming futures --- *)

let test_pool_futures () =
  Pool.with_pool ~domains:2 (fun pool ->
      let ok = Pool.submit pool (fun () -> 6 * 7) in
      let boom =
        Pool.submit pool ~label:"boom" (fun () -> failwith "kaboom")
      in
      let dropped =
        Pool.submit pool ~cancel:(fun () -> true) (fun () -> 99)
      in
      check Alcotest.int "await returns the value" 42
        (match Pool.await ok with Pool.Value v -> v | _ -> -1);
      (match Pool.await boom with
      | Pool.Fail f ->
          check Alcotest.string "failure keeps the label" "boom" f.f_label;
          check Alcotest.bool "failure captures the exception" true
            (String.length f.f_exn > 0)
      | _ -> Alcotest.fail "raising task must resolve as Fail");
      (match Pool.await dropped with
      | Pool.Cancelled -> ()
      | _ -> Alcotest.fail "cancel hook true must resolve as Cancelled");
      (* poll converges to the awaited outcome *)
      check Alcotest.bool "poll sees the resolved outcome" true
        (Pool.poll ok = Some (Pool.Value 42)))

let test_pool_future_map_mix () =
  (* futures and batch maps share the queue without disturbing each
     other's ordering *)
  Pool.with_pool ~domains:3 (fun pool ->
      let futs = List.init 10 (fun i -> Pool.submit pool (fun () -> i + 1)) in
      let mapped = Pool.map pool (fun i -> i * 2) (List.init 10 Fun.id) in
      check
        (Alcotest.list Alcotest.int)
        "map results ordered"
        (List.init 10 (fun i -> i * 2))
        (List.map (function Ok v -> v | Error _ -> -1) mapped);
      check
        (Alcotest.list Alcotest.int)
        "futures resolve to their own values"
        (List.init 10 (fun i -> i + 1))
        (List.map
           (fun f -> match Pool.await f with Pool.Value v -> v | _ -> -1)
           futs))

(* Every declared law, judged on a nonzero total, holds on the merged
   report of a pooled corpus run (pipeline plus lint per binary). *)
let test_corpus_merged_laws () =
  let reports =
    Pool.with_pool ~domains:2 (fun pool ->
        Fetch_eval.Corpus.map_selfbuilt_par pool ~scale:0.01
          ~only:[ "Openssl-1.1.0l"; "Busybox-1.31"; "Lighttpd-1.4.54" ]
          (fun (b : Fetch_eval.Corpus.binary) ->
            snd
              (Obs.with_run (fun () ->
                   let r = Fetch_core.Pipeline.run b.built.image in
                   ignore (Fetch_core.Lint.run r)))))
  in
  let merged =
    Obs.merge
      (List.map
         (function
           | Ok rep -> rep
           | Error f -> Alcotest.fail (Pool.failure_to_string f))
         reports)
  in
  check Alcotest.int "every law declared" 3 (List.length (Fetch_obs.Law.all ()));
  List.iter
    (fun (l : Fetch_obs.Law.t) ->
      check Alcotest.bool (l.total ^ " nonzero") true
        (List.assoc l.total merged.Obs.counters > 0))
    (Fetch_obs.Law.all ());
  check Alcotest.(list string) "counter laws on the merged corpus report" []
    (broken_laws merged)

let suite =
  [
    Alcotest.test_case "pool map ordering" `Quick test_pool_map_order;
    Alcotest.test_case "pool futures: value/fail/cancel" `Quick
      test_pool_futures;
    Alcotest.test_case "pool futures alongside maps" `Quick
      test_pool_future_map_mix;
    Alcotest.test_case "pool failure isolation" `Quick test_pool_failure_isolation;
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "trace contexts are per-domain" `Quick
      test_trace_domain_isolation;
    Alcotest.test_case "batch determinism across domain counts" `Quick
      test_batch_determinism;
    Alcotest.test_case "merged counter invariants" `Quick
      test_batch_merged_invariants;
    QCheck_alcotest.to_alcotest prop_batch_deterministic;
    Alcotest.test_case "parallel corpus matches sequential fold" `Quick
      test_corpus_par_matches_fold;
    Alcotest.test_case "counter laws on a merged corpus run" `Quick
      test_corpus_merged_laws;
  ]
