(** Rendering for {!Trace.report}s: a human-readable per-stage text
    table (built on [Fetch_util.Text_table]), JSON lines for machines,
    and the Chrome trace-event format. *)

(** One row of the per-stage aggregation: spans sharing a name are
    folded into call count and total duration.  [agg_depth] is the
    minimum nesting depth the name was seen at (used for indentation);
    rows appear in pre-order of first occurrence. *)
type agg = {
  agg_name : string;
  agg_calls : int;
  agg_total_ns : int64;
  agg_depth : int;
}

val aggregate_spans : Trace.report -> agg list

(** Human-readable report: a per-stage timing table followed by counter
    and histogram tables (sections are omitted when empty). *)
val text : Trace.report -> string

(** Machine-readable report: one JSON object per line — every span in
    pre-order, then every counter, then every histogram.  Example lines:
    {v
    {"type":"span","name":"xref","depth":1,"start_ns":820,"dur_ns":91403,"run":3}
    {"type":"counter","name":"recursive.insns_decoded","value":1582}
    {"type":"histogram","name":"recursive.block_insns","count":96,"sum":1582,"min":1,"max":64,"p50":14,"p90":48,"p99":62,"buckets":[[1,2],[4,30],[5,40],[6,24]]}
    v}
    Span lines carry an ["args"] object when the span has arguments;
    histogram lines list occupied log-2 buckets as [[bucket, count]]
    pairs. *)
val json_lines : Trace.report -> string

(** One histogram as a single JSON object (the same shape as its
    {!json_lines} line), shared with the batch report writer. *)
val histogram_json : string -> Trace.hist_stats -> string

(** Chrome trace-event JSON (the [trace_event] format Perfetto and
    [chrome://tracing] load directly): every span is a complete event
    ([ph:"X"], microsecond timestamps) on the track of its recording
    run ([tid] = [span.run]), so a merged parallel batch renders one
    track per binary; span args are preserved; counters become
    [ph:"C"] counter events and histograms [ph:"i"] instant events
    carrying count/sum/min/max/p50/p90/p99. *)
val chrome_trace : Trace.report -> string
