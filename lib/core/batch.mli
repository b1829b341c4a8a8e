(** Parallel batch analysis: run the full FETCH pipeline (and optionally
    the cross-layer linter) over many binaries on a {!Fetch_par.Pool},
    with per-binary failure isolation and a deterministic merged report.

    Each task loads its binary, brackets its own
    [Fetch_obs.Trace.with_run] (the recorder is per-domain — see the
    contract in [trace.mli]) and returns an {!analysis}; an exception
    anywhere in a task (unreadable file, ELF decode failure, a pipeline
    bug on one input) yields an [Error failure] for that binary only.
    Results are in input order and, timings aside, independent of the
    domain count. *)

(** One unit of work: a stable identifier (path or synthetic name) and a
    loader that runs {e inside} the worker task, so IO, decode and
    analysis all parallelize — and all fail into the task's failure
    record. *)
type item = { id : string; load : unit -> Fetch_analysis.Loaded.t }

(** Item over raw ELF bytes already in memory. *)
val item_of_raw : string -> string -> item

(** Item that reads and decodes [path] when the task runs. *)
val item_of_file : string -> item

(** One binary's successful analysis: the same answer record the serve
    daemon renders, plus this binary's trace. *)
type analysis = {
  summary : Summary.t;  (** findings are empty when lint is off *)
  report : Fetch_obs.Trace.report;  (** this binary's spans and counters *)
}

type outcome = (analysis, Fetch_par.Pool.failure) result

(** A finished batch. *)
type t = {
  domains : int;
  wall_s : float;  (** wall clock for the whole batch *)
  results : (string * outcome) list;  (** per binary, in input order *)
  merged : Fetch_obs.Trace.report;
      (** {!Fetch_obs.Trace.merge} of every successful binary's report *)
  n_ok : int;
  n_failed : int;
}

(** [run ~domains ~lint items] runs the default FETCH pipeline on every
    item on a fresh pool ([domains] defaults to
    {!Fetch_par.Pool.default_domains}).  [lint] (default [true]) also runs
    {!Lint.run} per binary. *)
val run : ?domains:int -> ?lint:bool -> item list -> t

(** Human-readable report: one line per binary (with diagnostics and
    findings indented under it), the merged stage/counter tables, and a
    summary line. *)
val text : t -> string

(** Machine-readable report, one JSON object per line: per-binary lines
    (starts, parse health, diagnostics, findings — or the captured
    error), merged counter lines, then stage-timing lines, populated
    histogram lines (per-binary wall time [batch.binary_wall_ms],
    [xref.rounds], [xref.round_cost_us] … with p50/p90/p99) and a
    summary.  With [timings:false] the stage and histogram lines are
    dropped and the summary carries no wall clock or domain count,
    making the output a deterministic function of the input binaries —
    byte-identical across domain counts, so reports can be diffed for
    equality. *)
val json_lines : ?timings:bool -> t -> string
