(** Ordered request engine — contract in the mli. *)

module Obs = Fetch_obs.Trace
module Clock = Fetch_obs.Clock
module Pool = Fetch_par.Pool
module P = Protocol

(* Every request line resolves as exactly one outcome, so
   [requests = Σ outcomes + in flight].  The engine's own tally is the
   live source of truth (stats must answer outside any trace run);
   [record] mirrors it into the serve.* counters of an instrumented
   run on the dispatch domain. *)
type outcome = Ok_response | Error_response of P.error_code | Stats_request

(* Tally order is the stats JSON key order. *)
let outcomes =
  [|
    Ok_response;
    Error_response P.Bad_request;
    Error_response P.Overloaded;
    Error_response P.Deadline_exceeded;
    Error_response P.Analysis_failed;
    Stats_request;
  |]

let outcome_label = function
  | Ok_response -> "ok"
  | Error_response code -> P.error_code_label code
  | Stats_request -> "stats_requests"

let outcome_index = function
  | Ok_response -> 0
  | Error_response P.Bad_request -> 1
  | Error_response P.Overloaded -> 2
  | Error_response P.Deadline_exceeded -> 3
  | Error_response P.Analysis_failed -> 4
  | Stats_request -> 5

let c_requests = Obs.counter "serve.requests"
let c_outcomes =
  Array.map (fun o -> Obs.counter ("serve." ^ outcome_label o)) outcomes
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

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Cache.t;
  slots : slot Queue.t;
  mutable requests : int;
  tally : int array;  (* indexed by [outcome_index] *)
  latency : Obs.Hist.t;
  mutable reports : Obs.report list;  (* newest first *)
}

let create ?(config = default_config) () =
  {
    cfg = config;
    pool = Pool.create ~domains:(max 1 config.domains) ();
    cache = Cache.create ~max_bytes:config.cache_bytes;
    slots = Queue.create ();
    requests = 0;
    tally = Array.make (Array.length outcomes) 0;
    latency = Obs.Hist.create ();
    reports = [];
  }

let ns_to_ms ns = Int64.to_int (Int64.div ns 1_000_000L)

let observe_latency t (s : slot) =
  let ms = ns_to_ms (Clock.elapsed_ns s.s_start) in
  Obs.Hist.observe t.latency ms;
  Obs.observe h_latency ms

let record t o =
  let i = outcome_index o in
  t.tally.(i) <- t.tally.(i) + 1;
  Obs.incr c_outcomes.(i)

(* Resolve a Running slot from its task outcome: render the response,
   record its outcome, and write back into the cache.  Dispatch
   thread only. *)
let finalize t (s : slot) bin_key outcome =
  let response =
    match outcome with
    | Pool.Value (Done payload, report) ->
        Cache.add t.cache bin_key payload;
        (match report with
        | Some r -> t.reports <- r :: t.reports
        | None -> ());
        record t Ok_response;
        P.ok_response ~id:s.s_id ~want:s.s_want payload
    | Pool.Value (Timed_out, report) ->
        (match report with
        | Some r -> t.reports <- r :: t.reports
        | None -> ());
        record t (Error_response P.Deadline_exceeded);
        P.error_response ~id:s.s_id ~code:P.Deadline_exceeded
          ~message:"deadline exceeded"
    | Pool.Cancelled ->
        record t (Error_response P.Deadline_exceeded);
        P.error_response ~id:s.s_id ~code:P.Deadline_exceeded
          ~message:"deadline exceeded before the task started"
    | Pool.Fail f ->
        record t (Error_response P.Analysis_failed);
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

let push_ready t id want response =
  let s = { s_id = id; s_want = want; s_start = Clock.now_ns (); s_state = Ready response } in
  observe_latency t s;
  Queue.add s t.slots

let resolve_error t id code message =
  record t (Error_response code);
  push_ready t id P.want_all (P.error_response ~id ~code ~message)

let stats_json t =
  let in_flight = refresh t in
  let lat = Obs.Hist.stats t.latency in
  let pct p = Obs.percentile lat p in
  let tally =
    String.concat ""
      (Array.to_list
         (Array.mapi
            (fun i o -> Printf.sprintf ",\"%s\":%d" (outcome_label o) t.tally.(i))
            outcomes))
  in
  Printf.sprintf
    "{\"requests\":%d%s,\"queue\":{\"bound\":%d,\"in_flight\":%d},\"latency_ms\":{\"count\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"max\":%d},\"cache\":%s}"
    t.requests tally t.cfg.queue_bound in_flight lat.count (pct 50.) (pct 90.)
    (pct 99.) lat.max
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
          record t Ok_response;
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
  t.requests <- t.requests + 1;
  Obs.incr c_requests;
  Obs.observe h_req_bytes (String.length line);
  match P.parse_request line with
  | Error (id, msg) -> resolve_error t id P.Bad_request msg
  | Ok { id; op = P.Stats } ->
      record t Stats_request;
      push_ready t id P.want_all (P.stats_response ~id (stats_json t))
  | Ok { id; op = P.Analyze a } -> submit_analyze t id a

let submit_bad t message =
  t.requests <- t.requests + 1;
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
