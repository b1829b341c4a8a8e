(** Renderers for trace reports (see mli). *)

module Json = Fetch_util.Json

type agg = {
  agg_name : string;
  agg_calls : int;
  agg_total_ns : int64;
  agg_depth : int;
}

let aggregate_spans (r : Trace.report) =
  let tbl : (string, agg ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : Trace.span) ->
      match Hashtbl.find_opt tbl s.name with
      | Some a ->
          a :=
            {
              !a with
              agg_calls = !a.agg_calls + 1;
              agg_total_ns = Int64.add !a.agg_total_ns s.dur_ns;
              agg_depth = min !a.agg_depth s.depth;
            }
      | None ->
          let a =
            ref
              {
                agg_name = s.name;
                agg_calls = 1;
                agg_total_ns = s.dur_ns;
                agg_depth = s.depth;
              }
          in
          Hashtbl.replace tbl s.name a;
          order := a :: !order)
    r.spans;
  List.rev_map (fun a -> !a) !order

let ms ns = Int64.to_float ns /. 1e6

let text (r : Trace.report) =
  let buf = Buffer.create 1024 in
  let aggs = aggregate_spans r in
  if aggs <> [] then begin
    Buffer.add_string buf "Pipeline stages (wall clock)\n";
    let rows =
      List.map
        (fun a ->
          [
            String.make (2 * a.agg_depth) ' ' ^ a.agg_name;
            string_of_int a.agg_calls;
            Printf.sprintf "%.3f" (ms a.agg_total_ns);
            Printf.sprintf "%.3f"
              (ms a.agg_total_ns /. float_of_int a.agg_calls);
          ])
        aggs
    in
    Buffer.add_string buf
      (Fetch_util.Text_table.render
         ~header:[ "stage"; "calls"; "total ms"; "mean ms" ]
         rows)
  end;
  if r.counters <> [] then begin
    if aggs <> [] then Buffer.add_char buf '\n';
    Buffer.add_string buf "Counters\n";
    Buffer.add_string buf
      (Fetch_util.Text_table.render
         ~header:[ "counter"; "value" ]
         (List.map (fun (n, v) -> [ n; string_of_int v ]) r.counters))
  end;
  if r.histograms <> [] then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf "Histograms\n";
    Buffer.add_string buf
      (Fetch_util.Text_table.render
         ~header:
           [ "histogram"; "count"; "sum"; "min"; "p50"; "p90"; "p99"; "max"; "mean" ]
         (List.map
            (fun (n, (h : Trace.hist_stats)) ->
              let pct p =
                if h.count = 0 then "-"
                else string_of_int (Trace.percentile h p)
              in
              [
                n;
                string_of_int h.count;
                string_of_int h.sum;
                string_of_int h.min;
                pct 50.0;
                pct 90.0;
                pct 99.0;
                string_of_int h.max;
                (if h.count = 0 then "-"
                 else
                   Printf.sprintf "%.1f"
                     (float_of_int h.sum /. float_of_int h.count));
              ])
            r.histograms))
  end;
  Buffer.contents buf

(* Sparse bucket rendering: [[bucket, count], ...] for occupied buckets
   only, so empty histograms stay one short line. *)
let buckets_json (h : Trace.hist_stats) =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '[';
  let first = ref true in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf (Printf.sprintf "[%d,%d]" i c)
      end)
    h.buckets;
  Buffer.add_char buf ']';
  Buffer.contents buf

let span_args_json args =
  if args = [] then ""
  else
    Printf.sprintf ",\"args\":{%s}"
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "%s:%s" (Json.escape k) (Json.escape v))
            args))

let histogram_json name (h : Trace.hist_stats) =
  let pct p = Trace.percentile h p in
  Printf.sprintf
    "{\"type\":\"histogram\",\"name\":%s,\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"buckets\":%s}"
    (Json.escape name) h.count h.sum h.min h.max (pct 50.0) (pct 90.0)
    (pct 99.0) (buckets_json h)

let json_lines (r : Trace.report) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : Trace.span) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"span\",\"name\":%s,\"depth\":%d,\"start_ns\":%Ld,\"dur_ns\":%Ld,\"run\":%d%s}\n"
           (Json.escape s.name) s.depth s.start_ns s.dur_ns s.run
           (span_args_json s.args)))
    r.spans;
  List.iter
    (fun (n, v) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"counter\",\"name\":%s,\"value\":%d}\n"
           (Json.escape n) v))
    r.counters;
  List.iter
    (fun (n, (h : Trace.hist_stats)) ->
      Buffer.add_string buf (histogram_json n h);
      Buffer.add_char buf '\n')
    r.histograms;
  Buffer.contents buf

(* ---- Chrome trace-event (Perfetto-loadable) exporter ---- *)

(* One complete event ("ph":"X") per span, timestamps in microseconds;
   each run becomes its own track ("tid" = the span's run id), so a
   merged report of a parallel batch renders as one track per binary.
   Counters become counter events ("ph":"C") and histograms instant
   events ("ph":"i") on tid 0. *)
let chrome_trace (r : Trace.report) =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let event s =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_char buf '\n';
    Buffer.add_string buf s
  in
  let us ns = Int64.to_float ns /. 1e3 in
  List.iter
    (fun (s : Trace.span) ->
      let args =
        match s.args with
        | [] -> ""
        | args ->
            Printf.sprintf ",\"args\":{%s}"
              (String.concat ","
                 (List.map
                    (fun (k, v) ->
                      Printf.sprintf "%s:%s" (Json.escape k) (Json.escape v))
                    args))
      in
      event
        (Printf.sprintf
           "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d%s}"
           (Json.escape s.name) (us s.start_ns) (us s.dur_ns) s.run args))
    r.spans;
  List.iter
    (fun (n, v) ->
      event
        (Printf.sprintf
           "{\"name\":%s,\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"value\":%d}}"
           (Json.escape n) v))
    r.counters;
  List.iter
    (fun (n, (h : Trace.hist_stats)) ->
      let pct p = Trace.percentile h p in
      event
        (Printf.sprintf
           "{\"name\":%s,\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d}}"
           (Json.escape n) h.count h.sum h.min h.max (pct 50.0) (pct 90.0)
           (pct 99.0)))
    r.histograms;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf
