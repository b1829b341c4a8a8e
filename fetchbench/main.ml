(* The FETCH benchmark: one workload per run, raw ELF bytes in, rendered
   summary JSON out.

     main.exe --workload corpus-batch|pointer-heavy|serve-mixed
              --seed N --seconds S --trace 0|1

   Every input is generated from the seed during set-up, which is timed
   only into [setup_s].  [--trace 0] measures the end-to-end metrics with
   tracing off; [--trace 1] measures the per-layer metrics, recording
   spans from this file around the calls into each layer on top of the
   spans the program already has.  Every answer is checked (see [Check]);
   a wrong one makes the run fail.  The last line of standard output is
   one JSON object with the metrics.

   Every time is reported at the host speed [Speed] fixes: the run
   interleaves passes of a reference kernel with the work it times and
   scales its times by the kernel's nominal over its measured median.
   The unscaled figures are printed on the comment lines. *)

open Fetchbench
module Trace = Fetch_obs.Trace
module Clock = Fetch_obs.Clock
module Engine = Fetch_serve.Engine
module Protocol = Fetch_serve.Protocol
module Cache = Fetch_serve.Cache
module Json = Fetch_util.Json
module Pipeline = Fetch_core.Pipeline
module Loaded = Fetch_analysis.Loaded

let now = Clock.now_ns
let ms ns = Int64.to_float ns /. 1e6
let ms_since t0 = ms (Clock.elapsed_ns t0)
let deadline_after s = Int64.add (now ()) (Int64.of_float (s *. 1e9))

(* {1 Fixed settings} *)

let setup_rounds = 3 (* set-up runs per run; [setup_s] is their median *)
let speed_passes = 32 (* reference passes on each side of a set-up *)
let corpus_copies = 6 (* draws of the Table II grid, 176 binaries each *)
let pointer_heavy_binaries = 512
let latency_limit_ms = 50.0 (* the p99 limit [max_rps] is held to *)
let serve_rate = 60.0 (* offered requests/s of the traced open loop *)
let serve_stream_length = 2400 (* requests the one-client loop replays *)
let sweep_rates = [ 100.; 140.; 180.; 220. ]
let sweep_step_s = 2.0
let serve_recent = 24 (* repeats and re-links draw from this many *)
let serve_cache_bytes = 256 * 1024 (* below the distinct working set *)
let alloc_binaries = 24
let memory_binaries = 8 (* the largest inputs, for [peak_heap_mb] *)
let memory_passes = 2
let memory_requests = 90 (* the stream's first requests, for [peak_heap_mb] *)

(* {1 Results} *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics
let attempted = ref 0
let failures = ref [] (* newest first *)

let outcome = function
  | Ok () -> incr attempted
  | Error msg ->
      incr attempted;
      failures := msg :: !failures

(* A check on the run as a whole. *)
let check_run = function Ok () -> () | Error msg -> failures := msg :: !failures

let mean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Nearest-rank percentile, [q] in [0, 1]. *)
let quantile l q =
  match l with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l = quantile l 0.5

let speed_samples t n =
  for _ = 1 to n do
    Speed.sample t
  done

(* Run [build] [setup_rounds] times from a compacted heap and keep the
   last result, handing the others to [discard]; [setup_s] is the median
   time, each scaled by the reference passes on either side of it. *)
let set_up ?(discard = ignore) build =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_rounds do
    Option.iter discard !last;
    last := None;
    Gc.compact ();
    let speed = Speed.create () in
    speed_samples speed speed_passes;
    let t0 = now () in
    last := Some (build ());
    let s = ms_since t0 /. 1000.0 in
    speed_samples speed speed_passes;
    times := (s *. Speed.factor speed) :: !times
  done;
  Gc.compact ();
  metric "setup_s" "s" (median !times);
  Option.get !last

(* {1 Closed loops} *)

(* Run the chain over [bins] in turn until [deadline], passing over
   every binary before repeating one, with a reference pass after each
   op.  Returns when each op started and its time in ms. *)
let closed_loop j bins ~speed ~deadline =
  let times = ref [] and i = ref 0 in
  while now () < deadline do
    let b = bins.(!i mod Array.length bins) in
    let t0 = now () in
    let answer = Chain.run b.Inputs.raw in
    times := (t0, ms_since t0) :: !times;
    outcome (Check.judge_answer j b answer);
    Speed.sample speed;
    incr i
  done;
  !times

let sum = List.fold_left ( +. ) 0.0

(* Ops per second of their summed time: the loop's wall time less the
   checks and the reference passes. *)
let per_second times = float_of_int (List.length times) /. (sum times /. 1000.0)

let print_speed speed =
  Printf.printf "# host speed: %d reference passes, median %.0f ns against %.0f nominal, times scaled by %.4f\n"
    (Speed.passes speed) (Speed.median_ns speed) Speed.nominal_ns (Speed.factor speed)

(* {1 The traced chain} *)

module Layers = struct
  type t = {
    spans : Selftime.t;
    counters : (string, int) Hashtbl.t;
    mutable ops : int;
    mutable wall_ns : int64;  (** inside the run, first span to last *)
    mutable top_ns : int64;  (** top-level spans *)
    mutable cost_ns : int64;  (** the whole traced op, run start and stop included *)
    mutable memo_entries : int;
    mutable reseeds : int;
    mutable payloads : string list;
    mutable scale : float;  (** [Speed.factor] of the run *)
  }

  let create () =
    {
      spans = Selftime.create ();
      counters = Hashtbl.create 64;
      ops = 0;
      wall_ns = 0L;
      top_ns = 0L;
      cost_ns = 0L;
      memo_entries = 0;
      reseeds = 0;
      payloads = [];
      scale = 1.0;
    }

  let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

  let op t (b : Inputs.binary) =
    let c0 = now () in
    let result = Chain.traced b.raw in
    t.cost_ns <- Int64.add t.cost_ns (Clock.elapsed_ns c0);
    Result.map
      (fun (r : Chain.traced) ->
        t.ops <- t.ops + 1;
        t.wall_ns <- Int64.add t.wall_ns r.wall_ns;
        t.top_ns <- Int64.add t.top_ns (Selftime.top_level_ns r.report.spans);
        t.memo_entries <- t.memo_entries + r.memo_entries;
        if r.reseeded then t.reseeds <- t.reseeds + 1;
        Selftime.add t.spans r.report.spans;
        List.iter (fun (k, v) -> Hashtbl.replace t.counters k (v + counter t k)) r.report.counters;
        if List.length t.payloads < 64 then t.payloads <- r.json :: t.payloads;
        r.json)
      result

  let per_op t ns = ms ns *. t.scale /. float_of_int (max 1 t.ops)
  let self t names = List.fold_left (fun acc n -> Int64.add acc (Selftime.get t.spans n).self_ns) 0L names
  let incl t names = List.fold_left (fun acc n -> Int64.add acc (Selftime.get t.spans n).incl_ns) 0L names

  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

  let report t ~untraced_ms =
    let pc name = float_of_int (counter t name) /. float_of_int (max 1 t.ops) in
    metric "elf.decode_ms" "ms" (per_op t (incl t [ "elf.decode" ]));
    metric "eh_frame.decode_ms" "ms" (per_op t (incl t [ "eh_frame.decode" ]));
    metric "loaded.load_ms" "ms" (per_op t (incl t [ "loaded.load" ]));
    metric "pipeline.self_ms" "ms" (per_op t (self t [ "pipeline"; "seeds" ]));
    metric "pipeline.incl_ms" "ms" (per_op t (incl t [ "pipeline" ]));
    let rec_self = self t [ "recursive"; "recursive.extend" ] in
    metric "recursive.self_ms" "ms" (per_op t rec_self);
    metric "recursive.incl_ms" "ms" (per_op t (incl t [ "recursive"; "recursive.extend" ]));
    let insns = counter t "recursive.insns_decoded" in
    metric "recursive.ns_per_insn" "ns" (Int64.to_float rec_self *. t.scale /. float_of_int (max 1 insns));
    metric "recursive.insns_decoded" "count" (pc "recursive.insns_decoded");
    metric "x86.memo_hit_ratio" "ratio" (1.0 -. ratio t.memo_entries insns);
    metric "xref.self_ms" "ms" (per_op t (self t [ "xref"; "xref.round" ]));
    metric "xref.incl_ms" "ms" (per_op t (incl t [ "xref" ]));
    metric "xref.extend_ms" "ms" (per_op t (incl t [ "recursive.extend" ]));
    metric "xref.rounds" "count" (pc "xref.rounds");
    metric "xref.accept_ratio" "ratio"
      (ratio (counter t "xref.accepted") (counter t "xref.candidates_scanned"));
    metric "xref.known_entries_skipped" "count" (pc "xref.known_entries_skipped");
    metric "callconv.self_ms" "ms" (per_op t (self t [ "fde_callconv_check" ]));
    metric "callconv.incl_ms" "ms" (per_op t (incl t [ "fde_callconv_check" ]));
    metric "pipeline.reseed_share" "ratio" (ratio t.reseeds t.ops);
    metric "tailcall.self_ms" "ms" (per_op t (self t [ "tailcall" ]));
    metric "tailcall.incl_ms" "ms" (per_op t (incl t [ "tailcall" ]));
    metric "tailcall.pairs_examined" "count" (pc "tailcall.pairs_examined");
    metric "lint.ms" "ms" (per_op t (incl t [ "lint" ]));
    metric "lint.dataflow_steps" "count" (pc "check.dataflow.steps");
    metric "summary.self_ms" "ms" (per_op t (self t [ "summary" ]));
    metric "summary.json_ms" "ms" (per_op t (incl t [ "summary.json" ]));
    let wall = Int64.to_float t.wall_ns in
    metric "selftime.residual_frac" "ratio" ((wall -. Int64.to_float t.top_ns) /. wall);
    metric "trace_overhead_frac" "ratio" ((per_op t t.cost_ns /. untraced_ms) -. 1.0)
end

(* Allocation per call, from [Gc] counters around each public call on a
   fresh load: these repeat exactly, unlike times. *)
let alloc_pass (bins : Inputs.binary array) =
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let kb w = w *. float_of_int (Sys.word_size / 8) /. 1024.0 in
  let n = min alloc_binaries (Array.length bins) in
  let sums = Array.make 4 0.0 in
  for i = 0 to n - 1 do
    let raw = bins.(i).Inputs.raw in
    match Fetch_elf.Decode.decode raw with
    | Error _ -> ()
    | Ok img ->
        let fresh () = Loaded.load img in
        let seeds l = List.sort_uniq compare (l.Loaded.fde_starts @ l.symbol_starts) in
        let rec_w =
          let l = fresh () in
          words (fun () -> Fetch_analysis.Recursive.run l ~seeds:(seeds l))
        in
        let xref_w =
          let l = fresh () in
          words (fun () -> Fetch_core.Xref.detect l ~seeds:(seeds l))
        in
        let r = Pipeline.run_loaded (fresh ()) in
        let lint_w = words (fun () -> Fetch_core.Lint.run r) in
        let op_w = words (fun () -> Chain.run raw) in
        List.iteri
          (fun k w -> sums.(k) <- sums.(k) +. kb w)
          [ rec_w; xref_w -. rec_w; lint_w; op_w ]
  done;
  List.iteri
    (fun k name -> metric name "KiB" (sums.(k) /. float_of_int (max 1 n)))
    [ "recursive.alloc_kb"; "xref.alloc_kb"; "lint.alloc_kb"; "op.alloc_kb" ]

(* The per-layer run over a set of binaries: each binary runs once
   untraced and once traced, back to back so that the machine's drift
   cancels out of the tracing overhead, then a reference pass; then the
   allocation pass.  Returns the payloads the traced ops rendered. *)
let layer_pass j bins ~seconds =
  let t = Layers.create () and speed = Speed.create () in
  let deadline = deadline_after seconds in
  let untraced_ns = ref 0L and i = ref 0 in
  while now () < deadline do
    let b = bins.(!i mod Array.length bins) in
    let t0 = now () in
    let answer = Chain.run b.Inputs.raw in
    untraced_ns := Int64.add !untraced_ns (Clock.elapsed_ns t0);
    outcome (Check.judge_answer j b answer);
    outcome (Check.judge_answer j b (Layers.op t b));
    Speed.sample speed;
    incr i
  done;
  t.scale <- Speed.factor speed;
  metric "host.speed_factor" "ratio" t.scale;
  Layers.report t ~untraced_ms:(Layers.per_op t !untraced_ns);
  alloc_pass bins;
  t.payloads

(* {1 Serve} *)

(* One open-loop run of [count] lines at [rate]: line [k] is due at
   [k / rate] s, and its latency runs from then to the poll that returns
   its response.  The engine answers in the order it was sent.  Given
   [speed], the loop runs one reference pass per request while nothing
   is outstanding and the next request is not due for 2 ms. *)
type served = {
  due : int64 array;
  sent : int64 array;  (** submit_line called *)
  dispatched : int64 array;  (** submit_line returned *)
  seen : int64 array;
  responses : string array;
  mutable offered : int;
}

let open_loop ?(on_submit = fun _ -> ()) ?speed engine lines ~rate ~count ~max_backlog =
  let t0 = Int64.add (now ()) 1_000_000L in
  let s =
    {
      due = Array.init count (fun k -> Int64.add t0 (Int64.of_float (float_of_int k *. 1e9 /. rate)));
      sent = Array.make count 0L;
      dispatched = Array.make count 0L;
      seen = Array.make count 0L;
      responses = Array.make count "";
      offered = 0;
    }
  in
  let got = ref 0 and stop = ref false and sampled = ref (-1) in
  while !got < s.offered || ((not !stop) && s.offered < count) do
    let busy = ref false in
    while (not !stop) && s.offered < count && s.due.(s.offered) <= now () do
      let k = s.offered in
      s.sent.(k) <- now ();
      Engine.submit_line engine lines.(k);
      s.dispatched.(k) <- now ();
      on_submit k;
      s.offered <- k + 1;
      busy := true;
      if s.offered - !got > max_backlog then stop := true
    done;
    (match Engine.poll_responses engine with
    | [] -> ()
    | rs ->
        let t = now () in
        List.iter
          (fun r ->
            s.responses.(!got) <- r;
            s.seen.(!got) <- t;
            incr got)
          rs;
        busy := true);
    (* With nothing outstanding, sleep until the next request is due:
       waking the dispatch domain for nothing slows the worker. *)
    if not !busy then
      if !got < s.offered || s.offered >= count then Unix.sleepf 0.0002
      else
        let wait_ms = ms (Int64.sub s.due.(s.offered) (now ())) in
        match speed with
        | Some speed when !sampled < s.offered && wait_ms > 2.0 ->
            Speed.sample speed;
            sampled := s.offered
        | _ -> Unix.sleepf (Float.max 0.0 (wait_ms /. 1000.0))
  done;
  s

(* Each request's latency in ms, scaled by [f]. *)
let latencies ~f s = List.init s.offered (fun k -> ms (Int64.sub s.seen.(k) s.due.(k)) *. f)

let engine_config ?gate () =
  {
    Engine.default_config with
    queue_bound = 4096;
    cache_bytes = serve_cache_bytes;
    domains = 1;
    worker_gate = gate;
  }

let with_engine ?gate f =
  let e = Engine.create ~config:(engine_config ?gate ()) () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e)

(* Judge every response of a run and check the engine's books. *)
let judge_served j engine (reqs : Inputs.request array) ~responses ~sent =
  let tally = Check.tally () in
  for k = 0 to sent - 1 do
    let r = responses.(k) in
    Check.count_response tally r;
    let verdict =
      if not (Check.is_ok r) then Error (Printf.sprintf "request %d: %s" k r)
      else
        match reqs.(k).kind with
        | Inputs.Fresh ->
            Result.map (Check.against_truth j.Check.score reqs.(k).bin) (Check.starts_of_json r)
        | Inputs.Relink base -> Check.relink ~base:responses.(base) ~relinked:r
        | Inputs.Repeat src -> Check.repeat ~cold:responses.(src) ~warm:r
    in
    outcome verdict
  done;
  let stats = Engine.stats_json engine in
  check_run (Result.map_error (( ^ ) "serve conservation: ") (Check.conservation ~sent tally stats));
  stats

let stats_num stats path =
  match Json.parse stats with
  | Error _ -> 0.0
  | Ok j ->
      let rec walk j = function
        | [] -> Option.value ~default:0.0 (Json.to_float j)
        | k :: ks -> ( match Json.member k j with Some j -> walk j ks | None -> 0.0)
      in
      walk j path

(* The engine's own latency figures start after ELF decode and truncate
   to whole ms; the benchmark's start when the request was due. *)
let print_latencies lat stats =
  Printf.printf "# serve: %d requests at %.0f/s: p50 %.3f ms, p99 %.3f ms from the due time (scaled); engine's own p50 %.0f ms, p99 %.0f ms (unscaled)\n"
    (List.length lat) serve_rate (median lat) (quantile lat 0.99)
    (stats_num stats [ "latency_ms"; "p50" ])
    (stats_num stats [ "latency_ms"; "p99" ]);
  Printf.printf "# serve: latency quantiles 0.3..0.7 (ms):%s\n"
    (String.concat "" (List.map (fun q -> Printf.sprintf " %.2f" (quantile lat q)) [ 0.3; 0.4; 0.45; 0.5; 0.55; 0.6; 0.7 ]))

(* {1 Memory} *)

(* [peak_heap_mb] is how far the major heap grows while the program
   works.  It is measured in a fresh process ([--memory], the job
   marshalled on its standard input) that holds only the job's inputs:
   OCaml 5.1 never shrinks its heap, so in the benchmark's own process
   the inputs, truth and answers would make up most of it and pace its
   collector. *)
type memory_job =
  | Chain_of of string list  (** raw binaries, each run [memory_passes] times *)
  | Serve_of of string array  (** request lines, sent at [serve_rate] *)

let memory_child () =
  let job : memory_job = Marshal.from_channel stdin in
  let peak = ref 0 in
  let sample () = peak := max !peak (Gc.quick_stat ()).heap_words in
  Gc.full_major ();
  let base = (Gc.quick_stat ()).heap_words in
  let alarm = Gc.create_alarm sample in
  let ok =
    match job with
    | Chain_of raws ->
        let ok = ref true in
        for _ = 1 to memory_passes do
          List.iter
            (fun raw ->
              ok := Result.is_ok (Chain.run raw) && !ok;
              sample ())
            raws
        done;
        !ok
    | Serve_of lines ->
        let n = Array.length lines in
        with_engine (fun e ->
            let s = open_loop e lines ~rate:serve_rate ~count:n ~max_backlog:n in
            Array.for_all Check.is_ok s.responses)
  in
  sample ();
  Gc.delete_alarm alarm;
  if ok then Printf.printf "%d\n" ((!peak - base) * (Sys.word_size / 8)) else print_endline "failed"

let peak_heap job =
  let exe = Sys.executable_name in
  let ic, oc = Unix.open_process_args exe [| exe; "--memory" |] in
  Marshal.to_channel oc job [];
  flush oc;
  let line = In_channel.input_line ic in
  match (Option.bind line int_of_string_opt, Unix.close_process (ic, oc)) with
  | Some bytes, Unix.WEXITED 0 -> metric "peak_heap_mb" "MiB" (float_of_int bytes /. 1048576.0)
  | _ -> check_run (Error "the memory probe failed")

(* {1 Serve workload} *)

(* [serve.max_rps]: the offered rate at which p99 reaches the latency
   limit, interpolated between the last rate that met it and the first
   that did not.  Each step runs on a fresh engine over the same stream
   prefix, and gives up once the backlog passes half a second of
   requests.  Two-second steps leave few samples beyond p99, and the
   figure spreads by half from seed to seed, so it is a per-layer
   figure without a bound rather than an end-to-end one.  Its latencies
   are scaled by the measured phase's [f]. *)
let sweep j reqs lines ~f ~start_rate ~start_p99 =
  let rec go lo lo_p99 = function
    | [] -> lo
    | rate :: rest ->
        let count = int_of_float (rate *. sweep_step_s) in
        let p99 =
          with_engine (fun e ->
              let s =
                open_loop e lines ~rate ~count ~max_backlog:(int_of_float (rate /. 2.0))
              in
              ignore (judge_served j e reqs ~responses:s.responses ~sent:s.offered);
              if s.offered < count then infinity else quantile (latencies ~f s) 0.99)
        in
        if p99 <= latency_limit_ms then go rate p99 rest
        else if p99 = infinity then lo
        else lo +. ((rate -. lo) *. (latency_limit_ms -. lo_p99) /. (p99 -. lo_p99))
  in
  go start_rate start_p99 sweep_rates

let serve_requests rate seconds = int_of_float (rate *. seconds)

let serve_stream ~seed ~n =
  Inputs.serve_stream ~seed ~fresh:(Inputs.serve_binary ~seed) ~n ~recent:serve_recent

let lines_of (reqs : Inputs.request array) = Array.map (fun (r : Inputs.request) -> r.line) reqs

let distinct_bins (reqs : Inputs.request array) =
  Array.to_list reqs
  |> List.filter (fun (r : Inputs.request) -> match r.kind with Inputs.Repeat _ -> false | _ -> true)
  |> List.map (fun (r : Inputs.request) -> r.bin)
  |> Array.of_list

(* Request [k]'s latency class: cold requests (fresh bytes and
   re-links) run the analysis, repeats are answered from the cache. *)
let cold (reqs : Inputs.request array) k = match reqs.(k).kind with Inputs.Repeat _ -> false | _ -> true

(* One client that waits for each answer ([Engine.flush]), with a
   reference pass after each: the stream is replayed in passes until
   [deadline], each through a fresh engine so that every pass meets the
   same cache hits, re-links and evictions.  Returns each request's
   time in ms with whether it was cold, newest first. *)
let serve_closed j (reqs : Inputs.request array) ~speed ~deadline =
  let n = Array.length reqs and times = ref [] in
  while now () < deadline do
    with_engine (fun e ->
        let responses = Array.make n "" and sent = ref 0 in
        while !sent < n && now () < deadline do
          let k = !sent in
          let t0 = now () in
          Engine.submit_line e reqs.(k).line;
          let answer = Engine.flush e in
          times := (t0, ms_since t0, cold reqs k) :: !times;
          responses.(k) <- String.concat "\n" answer;
          Speed.sample speed;
          incr sent
        done;
        ignore (judge_served j e reqs ~responses ~sent:!sent))
  done;
  !times

(* Throughput is requests over their summed time, [p50_ms] the median of
   the cold requests and [p99_ms] over every request, all scaled to the
   nominal host speed.  Half the requests are repeats, so the median over
   all of them would sit on the gap between cached and cold answers: the
   repeats' median is a per-layer figure. *)
let serve_untraced ~seed ~seconds =
  let reqs =
    set_up ~discard:ignore (fun () -> serve_stream ~seed ~n:serve_stream_length)
  in
  let j = Check.judge () in
  let speed = Speed.create () in
  let timed = serve_closed j reqs ~speed ~deadline:(deadline_after seconds) in
  let local = Speed.local speed in
  let pick ~scale keep =
    List.filter_map (fun (at, t, c) -> if keep c then Some (if scale then t *. local at else t) else None) timed
  in
  let all ~scale = pick ~scale (fun _ -> true) and cold ~scale = pick ~scale Fun.id in
  metric "throughput" "1/s" (per_second (all ~scale:true));
  metric "p50_ms" "ms" (median (cold ~scale:true));
  metric "p99_ms" "ms" (quantile (all ~scale:true) 0.99);
  metric "fn_f1" "ratio" (Check.f1 j.Check.score);
  check_run (Check.within_budget j.Check.score);
  Printf.printf "# serve: one client, %d requests over a %d-request stream; unscaled: %.3f/s, p50 (cold) %.3f ms, p99 %.3f ms\n"
    (List.length timed) serve_stream_length (per_second (all ~scale:false))
    (median (cold ~scale:false)) (quantile (all ~scale:false) 0.99);
  print_speed speed;
  Printf.printf "# serve: cold p50 %.3f ms over %d, repeat p50 %.3f ms over %d\n"
    (median (cold ~scale:true)) (List.length (cold ~scale:true))
    (median (pick ~scale:true not)) (List.length (pick ~scale:true not));
  peak_heap (Serve_of (Array.sub (lines_of reqs) 0 memory_requests))

let serve_traced ~seed ~seconds =
  let phase_s = 0.45 *. seconds in
  let count = serve_requests serve_rate phase_s in
  let gates = Array.make (count + 1) 0 and n_gates = Atomic.make 0 in
  let gate () =
    let k = Atomic.fetch_and_add n_gates 1 in
    if k < Array.length gates then gates.(k) <- Int64.to_int (now ())
  in
  let reqs, engine =
    set_up ~discard:(fun (_, e) -> Engine.shutdown e) (fun () ->
        let n = max count (serve_requests (List.fold_left max 0.0 sweep_rates) sweep_step_s) in
        (serve_stream ~seed ~n, Engine.create ~config:(engine_config ~gate ()) ()))
  in
  let lines = lines_of reqs in
  let j = Check.judge () in
  let speed = Speed.create () in
  let hit_counter = Trace.counter "serve.cache.hit" in
  let hit = Array.make count false in
  let s, stats =
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () ->
        Trace.start ();
        let hits = ref 0 in
        let on_submit k =
          let h = Trace.value hit_counter in
          hit.(k) <- h > !hits;
          hits := h
        in
        let s = open_loop ~on_submit ~speed engine lines ~rate:serve_rate ~count ~max_backlog:count in
        ignore (Trace.stop ());
        (s, judge_served j engine reqs ~responses:s.responses ~sent:s.offered))
  in
  let f = Speed.factor speed in
  let ms ns = ms ns *. f in
  let submit_ms pick =
    List.filter_map
      (fun k -> if pick k then Some (ms (Int64.sub s.dispatched.(k) s.sent.(k))) else None)
      (List.init s.offered Fun.id)
  in
  metric "engine.submit_hit_ms" "ms" (mean (submit_ms (fun k -> hit.(k))));
  metric "engine.submit_miss_ms" "ms" (mean (submit_ms (fun k -> not hit.(k))));
  (* The pool has one domain, so the k-th gate call starts the k-th
     miss; a task ends before the next one starts and before its
     response is seen. *)
  let misses = Array.of_list (List.filter (fun k -> not hit.(k)) (List.init s.offered Fun.id)) in
  let m = min (Array.length misses) (Atomic.get n_gates) in
  let g k = Int64.of_int gates.(k) in
  (* A task can start before submit_line returns: such a wait is 0. *)
  let waits = List.init m (fun i -> Float.max 0.0 (ms (Int64.sub (g i) s.dispatched.(misses.(i))))) in
  let service =
    List.init m (fun i ->
        let seen = s.seen.(misses.(i)) in
        let stop = if i + 1 < m then min seen (g (i + 1)) else seen in
        ms (Int64.sub stop (g i)))
  in
  let wall = ms (Int64.sub s.seen.(s.offered - 1) s.due.(0)) in
  metric "engine.queue_wait_ms" "ms" (mean waits);
  metric "engine.service_ms" "ms" (mean service);
  metric "pool.busy_frac" "ratio" (sum service /. wall);
  metric "loadgen.lag_ms" "ms"
    (mean (List.init s.offered (fun k -> ms (Int64.sub s.sent.(k) s.due.(k)))));
  metric "engine.latency_p50_ms" "ms" (stats_num stats [ "latency_ms"; "p50" ]);
  metric "engine.latency_p99_ms" "ms" (stats_num stats [ "latency_ms"; "p99" ]);
  let lat = latencies ~f s in
  print_speed speed;
  print_latencies lat stats;
  metric "serve.repeat_p50_ms" "ms" (median (List.filteri (fun k _ -> not (cold reqs k)) lat));
  metric "serve.all_p50_ms" "ms" (median lat);
  metric "serve.open_p99_ms" "ms" (quantile lat 0.99);
  metric "serve.max_rps" "1/s" (sweep j reqs lines ~f ~start_rate:serve_rate ~start_p99:(quantile lat 0.99));
  let lookups = stats_num stats [ "cache"; "hits" ] +. stats_num stats [ "cache"; "misses" ] in
  metric "cache.hit_ratio" "ratio" (stats_num stats [ "cache"; "hits" ] /. lookups);
  metric "cache.eh_hit_ratio" "ratio"
    (stats_num stats [ "cache"; "eh_hits" ] /. stats_num stats [ "cache"; "misses" ]);
  metric "cache.evictions" "count" (stats_num stats [ "cache"; "evictions" ]);
  (* The pipeline layers, over the distinct binaries of the stream. *)
  let bins = distinct_bins reqs in
  let payloads = layer_pass j bins ~seconds:(0.2 *. seconds) in
  (* Protocol and cache-key layers, over the stream's own lines. *)
  let timed f xs =
    let t0 = now () in
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    ms (Clock.elapsed_ns t0) /. float_of_int (max 1 (List.length xs))
  in
  metric "protocol.parse_ms" "ms" (timed Protocol.parse_request (Array.to_list lines));
  metric "protocol.render_ms" "ms"
    (timed (Protocol.ok_response ~id:(Some (Json.Num 1.0)) ~want:Protocol.want_all) payloads);
  metric "cache.digest_ms" "ms"
    (timed Cache.binary_key (Array.to_list (Array.map (fun (b : Inputs.binary) -> b.raw) bins)));
  check_run (Check.within_budget j.Check.score)

(* {1 Closed-loop workloads} *)

let closed_bins workload ~seed =
  let bins =
    match workload with
    | "corpus-batch" -> Inputs.corpus_batch ~seed ~copies:corpus_copies
    | _ -> Inputs.pointer_heavy ~seed ~n:pointer_heavy_binaries
  in
  let a = Array.of_list bins in
  Fetch_util.Prng.shuffle (Fetch_util.Prng.create seed) a;
  a

(* Throughput is ops over their summed time, and the quantiles are over
   every op's time, all scaled to the nominal host speed; [peak_heap_mb]
   is measured on the largest inputs. *)
let closed_untraced workload ~seed ~seconds =
  let bins = set_up (fun () -> closed_bins workload ~seed) in
  let j = Check.judge () in
  let speed = Speed.create () in
  let times = closed_loop j bins ~speed ~deadline:(deadline_after seconds) in
  let raw = List.map snd times in
  let local = Speed.local speed in
  let scaled = List.map (fun (at, t) -> t *. local at) times in
  metric "throughput" "1/s" (per_second scaled);
  metric "p50_ms" "ms" (median scaled);
  metric "p99_ms" "ms" (quantile scaled 0.99);
  metric "fn_f1" "ratio" (Check.f1 j.Check.score);
  check_run (Check.within_budget j.Check.score);
  Printf.printf "# %s: %d binaries, %d ops in %.2f s; unscaled: %.3f/s, p50 %.3f ms, p99 %.3f ms\n"
    workload (Array.length bins) (List.length raw) (sum raw /. 1000.0) (per_second raw) (median raw)
    (quantile raw 0.99);
  print_speed speed;
  let largest =
    Array.to_list (Array.map (fun (b : Inputs.binary) -> b.raw) bins)
    |> List.sort (fun a b -> compare (String.length b) (String.length a))
    |> List.filteri (fun i _ -> i < memory_binaries)
  in
  peak_heap (Chain_of largest)

let closed_traced workload ~seed ~seconds =
  let bins = set_up (fun () -> closed_bins workload ~seed) in
  let j = Check.judge () in
  ignore (layer_pass j bins ~seconds);
  check_run (Check.within_budget j.Check.score);
  List.iter
    (fun name -> metric name "ms" 0.0)
    [
      "engine.submit_hit_ms"; "engine.submit_miss_ms"; "engine.queue_wait_ms";
      "engine.service_ms"; "loadgen.lag_ms"; "engine.latency_p50_ms";
      "engine.latency_p99_ms"; "serve.repeat_p50_ms"; "serve.all_p50_ms"; "serve.open_p99_ms";
      "protocol.parse_ms"; "protocol.render_ms"; "cache.digest_ms";
    ];
  metric "serve.max_rps" "1/s" 0.0;
  List.iter (fun name -> metric name "ratio" 0.0) [ "pool.busy_frac"; "cache.hit_ratio"; "cache.eh_hit_ratio" ];
  metric "cache.evictions" "count" 0.0

(* {1 Main} *)

let workloads = [ "corpus-batch"; "pointer-heavy"; "serve-mixed" ]

let print_result ~trace =
  let all = List.rev !metrics in
  let keep (name, _, _) =
    let end_to_end =
      List.mem name [ "throughput"; "p50_ms"; "p99_ms"; "peak_heap_mb"; "fn_f1"; "setup_s" ]
    in
    if trace then not end_to_end else end_to_end
  in
  let show f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0" in
  List.iter (fun (n, v, u) -> Printf.printf "%-28s %s %s\n" n (show v) u) all;
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then failures := (n ^ " is not a number") :: !failures)
    all;
  let failed = List.length !failures in
  let correct = failed = 0 && !attempted > 0 in
  List.iter (fun f -> Printf.eprintf "wrong: %s\n" f) (List.rev !failures);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (show v) u)
          (List.filter keep all)));
  correct

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let memory = ref false in
  Arg.parse
    [
      ("--memory", Arg.Set memory, " (internal) measure a marshalled job's heap growth");
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !memory then begin
    memory_child ();
    exit 0
  end;
  if not (List.mem !workload workloads && !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1))
  then begin
    prerr_endline "usage: main.exe --workload W --seed N --seconds S --trace 0|1";
    exit 2
  end;
  Printf.printf "# fetchbench workload=%s seed=%d seconds=%d trace=%d\n" !workload !seed !seconds !trace;
  Printf.printf "# host: nproc=%d ocaml=%s serve_pool_domains=1 (no parallel speedup is reported)\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let seconds = float_of_int !seconds and seed = !seed in
  (match (!workload, !trace = 1) with
  | "serve-mixed", false -> serve_untraced ~seed ~seconds
  | "serve-mixed", true -> serve_traced ~seed ~seconds
  | w, false -> closed_untraced w ~seed ~seconds
  | w, true -> closed_traced w ~seed ~seconds);
  metric "error_rate" "ratio" (float_of_int (List.length !failures) /. float_of_int (max 1 !attempted));
  if not (print_result ~trace:(!trace = 1)) then exit 1
