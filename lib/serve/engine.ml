(** Ordered request engine — contract in the mli. *)

module Obs = Fetch_obs.Trace
module Clock = Fetch_obs.Clock
module Pool = Fetch_par.Pool
module P = Protocol

(* serve.* meters.  Like the cache, the engine's own [stats] record is
   the live source of truth (stats must answer outside any trace run);
   these handles mirror it into instrumented runs on the dispatch
   domain. *)
let c_requests = Obs.counter "serve.requests"
let c_ok = Obs.counter "serve.ok"
let c_bad = Obs.counter "serve.bad_request"
let c_overloaded = Obs.counter "serve.overloaded"
let c_deadline = Obs.counter "serve.deadline_exceeded"
let c_failed = Obs.counter "serve.analysis_failed"
let c_stats = Obs.counter "serve.stats_requests"
let h_latency = Obs.histogram "serve.latency_ms"
let h_depth = Obs.histogram "serve.queue_depth"
let h_req_bytes = Obs.histogram "serve.request_bytes"

type config = {
  queue_bound : int;
  cache_bytes : int;
  domains : int;
  capture_reports : bool;
  worker_gate : (unit -> unit) option;
}

let default_config =
  {
    queue_bound = 64;
    cache_bytes = 64 * 1024 * 1024;
    domains = Pool.default_domains ();
    capture_reports = false;
    worker_gate = None;
  }

(* What a pool task hands back: the serialized summary, or a
   cooperative timeout. *)
type task_out = Done of string | Timed_out

type slot_state =
  | Ready of string  (* rendered response *)
  | Running of {
      fut : (task_out * Obs.report option) Pool.future;
      bin_key : Cache.key;
    }

type slot = {
  s_id : Fetch_util.Json.t option;
  s_want : P.want;
  s_start : int64;
  mutable s_state : slot_state;
}

(* A plain mutable log-2 histogram over Trace's bucket scheme, so the
   stats request can report percentiles without a live trace run. *)
type plain_hist = {
  mutable ph_count : int;
  mutable ph_sum : int;
  mutable ph_min : int;
  mutable ph_max : int;
  ph_buckets : int array;
}

let plain_hist () =
  {
    ph_count = 0;
    ph_sum = 0;
    ph_min = max_int;
    ph_max = 0;
    ph_buckets = Array.make Obs.n_buckets 0;
  }

let ph_observe h v =
  h.ph_count <- h.ph_count + 1;
  h.ph_sum <- h.ph_sum + v;
  if v < h.ph_min then h.ph_min <- v;
  if v > h.ph_max then h.ph_max <- v;
  let b = Obs.bucket_of v in
  h.ph_buckets.(b) <- h.ph_buckets.(b) + 1

let ph_stats h : Obs.hist_stats =
  if h.ph_count = 0 then Obs.empty_hist_stats
  else
    {
      count = h.ph_count;
      sum = h.ph_sum;
      min = h.ph_min;
      max = h.ph_max;
      buckets = Array.copy h.ph_buckets;
    }

type stats = {
  mutable requests : int;
  mutable ok : int;
  mutable bad_request : int;
  mutable overloaded : int;
  mutable deadline_exceeded : int;
  mutable analysis_failed : int;
  mutable stats_requests : int;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Cache.t;
  slots : slot Queue.t;
  st : stats;
  latency : plain_hist;
  mutable reports : Obs.report list;  (* newest first *)
}

let create ?(config = default_config) () =
  {
    cfg = config;
    pool = Pool.create ~domains:(max 1 config.domains) ();
    cache = Cache.create ~max_bytes:config.cache_bytes;
    slots = Queue.create ();
    st =
      {
        requests = 0;
        ok = 0;
        bad_request = 0;
        overloaded = 0;
        deadline_exceeded = 0;
        analysis_failed = 0;
        stats_requests = 0;
      };
    latency = plain_hist ();
    reports = [];
  }

let ns_to_ms ns = Int64.to_int (Int64.div ns 1_000_000L)

let observe_latency t (s : slot) =
  let ms = ns_to_ms (Clock.elapsed_ns s.s_start) in
  ph_observe t.latency ms;
  Obs.observe h_latency ms

(* Resolve a Running slot from its task outcome: render the response,
   bump the right counter, and write back into the cache.  Dispatch
   thread only. *)
let finalize t (s : slot) bin_key outcome =
  let response =
    match outcome with
    | Pool.Value (Done payload, report) ->
        Cache.add t.cache bin_key payload;
        (match report with
        | Some r -> t.reports <- r :: t.reports
        | None -> ());
        t.st.ok <- t.st.ok + 1;
        Obs.incr c_ok;
        P.ok_response ~id:s.s_id ~want:s.s_want payload
    | Pool.Value (Timed_out, report) ->
        (match report with
        | Some r -> t.reports <- r :: t.reports
        | None -> ());
        t.st.deadline_exceeded <- t.st.deadline_exceeded + 1;
        Obs.incr c_deadline;
        P.error_response ~id:s.s_id ~code:P.Deadline_exceeded
          ~message:"deadline exceeded"
    | Pool.Cancelled ->
        t.st.deadline_exceeded <- t.st.deadline_exceeded + 1;
        Obs.incr c_deadline;
        P.error_response ~id:s.s_id ~code:P.Deadline_exceeded
          ~message:"deadline exceeded before the task started"
    | Pool.Fail f ->
        t.st.analysis_failed <- t.st.analysis_failed + 1;
        Obs.incr c_failed;
        P.error_response ~id:s.s_id ~code:P.Analysis_failed ~message:f.f_exn
  in
  observe_latency t s;
  s.s_state <- Ready response

(* Poll every Running slot once; resolved ones become Ready in place
   (emission order is the queue order, untouched).  Returns the number
   still in flight. *)
let refresh t =
  let in_flight = ref 0 in
  Queue.iter
    (fun s ->
      match s.s_state with
      | Ready _ -> ()
      | Running { fut; bin_key } -> (
          match Pool.poll fut with
          | Some outcome -> finalize t s bin_key outcome
          | None -> incr in_flight))
    t.slots;
  !in_flight

let push_ready t ?(latency = true) id want response =
  let s = { s_id = id; s_want = want; s_start = Clock.now_ns (); s_state = Ready response } in
  if latency then observe_latency t s;
  Queue.add s t.slots

let resolve_error t id code message =
  (match (code : P.error_code) with
  | P.Bad_request ->
      t.st.bad_request <- t.st.bad_request + 1;
      Obs.incr c_bad
  | P.Overloaded ->
      t.st.overloaded <- t.st.overloaded + 1;
      Obs.incr c_overloaded
  | P.Deadline_exceeded ->
      t.st.deadline_exceeded <- t.st.deadline_exceeded + 1;
      Obs.incr c_deadline
  | P.Analysis_failed ->
      t.st.analysis_failed <- t.st.analysis_failed + 1;
      Obs.incr c_failed);
  push_ready t id P.want_all (P.error_response ~id ~code ~message)

let stats_json t =
  let in_flight = refresh t in
  let lat = ph_stats t.latency in
  let pct p = Obs.percentile lat p in
  Printf.sprintf
    "{\"requests\":%d,\"ok\":%d,\"bad_request\":%d,\"overloaded\":%d,\"deadline_exceeded\":%d,\"analysis_failed\":%d,\"stats_requests\":%d,\"queue\":{\"bound\":%d,\"in_flight\":%d},\"latency_ms\":{\"count\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"max\":%d},\"cache\":%s}"
    t.st.requests t.st.ok t.st.bad_request t.st.overloaded
    t.st.deadline_exceeded t.st.analysis_failed t.st.stats_requests
    t.cfg.queue_bound in_flight lat.count (pct 50.) (pct 90.) (pct 99.)
    lat.max
    (Cache.stats_json t.cache)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | bytes -> Ok bytes
  | exception Sys_error msg -> Error msg

let submit_analyze t id (a : P.analyze) =
  match
    match a.source with `Bytes b -> Ok b | `Path p -> read_file p
  with
  | Error msg ->
      resolve_error t id P.Analysis_failed ("cannot read input: " ^ msg)
  | Ok bytes -> (
      let bin_key = Cache.binary_key bytes in
      match Cache.find t.cache bin_key with
      | Some payload ->
          (* warm path: same renderer, same payload bytes as the cold
             response — byte-identical by construction *)
          t.st.ok <- t.st.ok + 1;
          Obs.incr c_ok;
          push_ready t id a.want (P.ok_response ~id ~want:a.want payload)
      | None -> (
          let in_flight = refresh t in
          Obs.observe h_depth in_flight;
          if in_flight >= t.cfg.queue_bound then
            resolve_error t id P.Overloaded
              (Printf.sprintf "queue full (%d in flight)" t.cfg.queue_bound)
          else
            match Fetch_elf.Decode.decode bytes with
            | Error e ->
                resolve_error t id P.Analysis_failed ("not a loadable ELF: " ^ e)
            | Ok image ->
                let start = Clock.now_ns () in
                let deadline =
                  Option.map
                    (fun ms ->
                      Int64.add start (Int64.mul (Int64.of_int ms) 1_000_000L))
                    a.deadline_ms
                in
                let expired () =
                  match deadline with
                  | None -> false
                  | Some d -> Clock.now_ns () >= d
                in
                let gate = t.cfg.worker_gate in
                let capture = t.cfg.capture_reports in
                let body () =
                  (match gate with Some g -> g () | None -> ());
                  if expired () then Timed_out
                  else
                    let loaded = Fetch_analysis.Loaded.load image in
                    if expired () then Timed_out
                    else
                      let r = Fetch_core.Pipeline.run_loaded loaded in
                      if expired () then Timed_out
                      else
                        Done
                          (Fetch_core.Summary.to_json
                             (Fetch_core.Summary.of_result r))
                in
                let task () =
                  if capture then
                    let v, report = Obs.with_run body in
                    (v, Some report)
                  else (body (), None)
                in
                let fut =
                  Pool.submit t.pool ~cancel:expired ~label:"serve.analyze" task
                in
                Queue.add
                  {
                    s_id = id;
                    s_want = a.want;
                    s_start = start;
                    s_state = Running { fut; bin_key };
                  }
                  t.slots))

let submit_line t line =
  t.st.requests <- t.st.requests + 1;
  Obs.incr c_requests;
  Obs.observe h_req_bytes (String.length line);
  match P.parse_request line with
  | Error (id, msg) -> resolve_error t id P.Bad_request msg
  | Ok { id; op = P.Stats } ->
      t.st.stats_requests <- t.st.stats_requests + 1;
      Obs.incr c_stats;
      push_ready t id P.want_all (P.stats_response ~id (stats_json t))
  | Ok { id; op = P.Analyze a } -> submit_analyze t id a

let submit_bad t message =
  t.st.requests <- t.st.requests + 1;
  Obs.incr c_requests;
  resolve_error t None P.Bad_request message

let poll_responses t =
  ignore (refresh t);
  let out = ref [] in
  let rec go () =
    match Queue.peek_opt t.slots with
    | Some { s_state = Ready r; _ } ->
        ignore (Queue.pop t.slots);
        out := r :: !out;
        go ()
    | _ -> ()
  in
  go ();
  List.rev !out

let flush t =
  let out = ref [] in
  let rec go () =
    match Queue.peek_opt t.slots with
    | None -> ()
    | Some s ->
        (match s.s_state with
        | Ready _ -> ()
        | Running { fut; bin_key } -> finalize t s bin_key (Pool.await fut));
        (match s.s_state with
        | Ready r ->
            ignore (Queue.pop t.slots);
            out := r :: !out
        | Running _ -> assert false);
        go ()
  in
  go ();
  List.rev !out

let pending t = Queue.length t.slots
let reports t = List.rev t.reports
let shutdown t = Pool.shutdown t.pool
