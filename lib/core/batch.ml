(** Parallel batch analysis over many binaries — semantics in the mli. *)

module Obs = Fetch_obs.Trace
module Report = Fetch_obs.Report
module Pool = Fetch_par.Pool

type item = { id : string; load : unit -> Fetch_analysis.Loaded.t }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_raw id raw =
  match Fetch_elf.Decode.decode raw with
  | Ok img -> Fetch_analysis.Loaded.load img
  | Error e -> failwith (Printf.sprintf "%s: ELF decode failed: %s" id e)

let item_of_raw id raw = { id; load = (fun () -> load_raw id raw) }

let item_of_file path =
  (* read inside the task so file IO overlaps with analysis *)
  { id = path; load = (fun () -> load_raw path (read_file path)) }

(* Per-binary wall time, observed inside each task's run so the merged
   batch report carries the cross-binary distribution (p50/p90/p99). *)
let h_binary_wall_ms = Obs.histogram "batch.binary_wall_ms"

type analysis = { summary : Summary.t; report : Obs.report }

type outcome = (analysis, Pool.failure) result

type t = {
  domains : int;
  wall_s : float;
  results : (string * outcome) list;
  merged : Obs.report;
  n_ok : int;
  n_failed : int;
}

let analyze ~lint item =
  let summary, report =
    Obs.with_run (fun () ->
        let summary, secs =
          Fetch_obs.Clock.time_s (fun () ->
              Summary.of_result ~lint (Pipeline.run_loaded (item.load ())))
        in
        Obs.observe h_binary_wall_ms (int_of_float (secs *. 1e3));
        summary)
  in
  { summary; report }

let run ?domains ?(lint = true) items =
  Pool.with_pool ?domains @@ fun pool ->
  let (results, wall_s) =
    Fetch_obs.Clock.time_s (fun () ->
        Pool.map pool
          ~label:(fun _ it -> it.id)
          (analyze ~lint)
          items)
  in
  let results = List.map2 (fun it r -> (it.id, r)) items results in
  let merged =
    Obs.merge
      (List.filter_map
         (function _, Ok a -> Some a.report | _, Error _ -> None)
         results)
  in
  let n_ok =
    List.length (List.filter (function _, Ok _ -> true | _ -> false) results)
  in
  {
    domains = Pool.size pool;
    wall_s;
    results;
    merged;
    n_ok;
    n_failed = List.length results - n_ok;
  }

(* ---- renderers ---- *)

let text t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Ok { summary = a; _ } ->
          Buffer.add_string buf
            (Printf.sprintf
               "%-40s %5d starts  eh_frame %d ok/%d skipped  %d finding%s\n" id
               (List.length a.starts) a.records_ok a.records_skipped
               (List.length a.findings)
               (if List.length a.findings = 1 then "" else "s"));
          List.iter
            (fun d -> Buffer.add_string buf (Printf.sprintf "    eh: %s\n" d))
            a.diags;
          List.iter
            (fun f ->
              Buffer.add_string buf
                (Printf.sprintf "    %s\n" (Fetch_check.Finding.to_string f)))
            a.findings
      | Error f ->
          Buffer.add_string buf (Printf.sprintf "%-40s FAILED\n" id);
          Buffer.add_string buf
            (Printf.sprintf "    %s\n" (Pool.failure_to_string f)))
    t.results;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Report.text t.merged);
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d binar%s analyzed (%d ok, %d failed) on %d domain%s in %.3fs\n"
       (List.length t.results)
       (if List.length t.results = 1 then "y" else "ies")
       t.n_ok t.n_failed t.domains
       (if t.domains = 1 then "" else "s")
       t.wall_s);
  Buffer.contents buf

(* JSON lines.  With [timings:false] every emitted byte is a
   deterministic function of the input binaries — no wall clock, no
   domain count, no span lines — so reports from runs at different
   domain counts can be diffed for equality. *)
let json_lines ?(timings = true) t =
  let buf = Buffer.create 4096 in
  let str = Fetch_util.Json.escape in
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Ok { summary = a; _ } ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"type\":\"binary\",\"id\":%s,\"status\":\"ok\",\"starts\":[%s],\"seeds\":%d,\"records_ok\":%d,\"records_skipped\":%d,\"diags\":[%s],\"findings\":[%s]}\n"
               (str id)
               (String.concat "," (List.map string_of_int a.starts))
               a.n_seeds a.records_ok a.records_skipped
               (String.concat "," (List.map str a.diags))
               (String.concat ","
                  (List.map Fetch_check.Finding.to_json a.findings)))
      | Error f ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"type\":\"binary\",\"id\":%s,\"status\":\"failed\",\"error\":%s}\n"
               (str id) (str f.Pool.f_exn)))
    t.results;
  List.iter
    (fun (n, v) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"counter\",\"name\":%s,\"value\":%d}\n"
           (str n) v))
    t.merged.Obs.counters;
  if timings then begin
    List.iter
      (fun (a : Report.agg) ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"type\":\"stage\",\"name\":%s,\"calls\":%d,\"total_ms\":%.3f}\n"
             (str a.agg_name) a.agg_calls
             (Int64.to_float a.agg_total_ns /. 1e6)))
      (Report.aggregate_spans t.merged);
    (* distributions are timing-derived (binary wall time, xref round
       cost), so they stay out of the deterministic no-timings report *)
    List.iter
      (fun (n, h) ->
        if h.Obs.count > 0 then
          Buffer.add_string buf (Report.histogram_json n h ^ "\n"))
      t.merged.Obs.histograms;
    Buffer.add_string buf
      (Printf.sprintf
         "{\"type\":\"summary\",\"binaries\":%d,\"ok\":%d,\"failed\":%d,\"domains\":%d,\"wall_s\":%.3f}\n"
         (List.length t.results) t.n_ok t.n_failed t.domains t.wall_s)
  end
  else
    Buffer.add_string buf
      (Printf.sprintf
         "{\"type\":\"summary\",\"binaries\":%d,\"ok\":%d,\"failed\":%d}\n"
         (List.length t.results) t.n_ok t.n_failed);
  Buffer.contents buf
