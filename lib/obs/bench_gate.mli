(** The pipeline bench snapshot ([BENCH_pipeline.json]) as a typed
    value, and the regression gate that compares a fresh run against
    the committed baseline ([bench perf --check]).

    A snapshot ({!schema_current}, [fetch-bench-pipeline/6]) holds the
    corpus size, per-stage means, every counter, a ["host"] object
    ([cores_available] from [Domain.recommended_domain_count], OS type,
    word size, OCaml version) so single-core snapshots are
    self-explaining, and a ["histograms"] array with log-2 buckets and
    p50/p90/p99.

    {2 Gate semantics}

    Detection results must not drift at all: every counter present in
    the baseline must exist in the current snapshot with exactly the
    same value (the corpus is deterministic, so [xref.accepted],
    [tailcall.merges], [pipeline.seeds.final] … pin the detection
    outcome).  Counters only the current snapshot has are new
    instrumentation and pass.  The current counters must also obey
    every declared {!Law}: a drift the baseline shares passes the
    comparison, but not a broken law.

    Stage means are timing, so they are compared after machine-speed
    normalisation: every stage mean is scaled by the ratio of the two
    snapshots' ["pipeline"] stage means, which cancels a uniformly
    faster or slower machine and leaves exactly the per-stage {e share}
    regressions the ROADMAP's xref work needs to guard.  A stage fails
    when its normalised mean exceeds the baseline by more than
    [tolerance] (relative, default 0.5).  Stages with a baseline mean
    below 0.1 ms/binary are too noisy to gate and are skipped. *)

type host = {
  cores : int;  (** [Domain.recommended_domain_count] at snapshot time *)
  os_type : string;
  word_size : int;
  ocaml_version : string;
}

(** The host this process runs on. *)
val this_host : unit -> host

type stage = {
  s_name : string;
  s_calls : int;
  s_total_ms : float;
  s_mean_ms : float;  (** per binary *)
}

type snapshot = {
  schema : string;
  scale : float;
  binaries : int;
  domains : int;
  host : host option;  (** [None] when the document has no host object *)
  seq_wall_s : float;
  par_wall_s : float;
  pipeline_total_ms : float;
  stages : stage list;
  counters : (string * int) list;
  histograms : (string * Trace.hist_stats) list;
}

(** Current schema id written by {!to_json}. *)
val schema_current : string

(** Pretty-printed JSON document (the [BENCH_pipeline.json] format). *)
val to_json : snapshot -> string

(** Parse a snapshot document of any [fetch-bench-pipeline] schema;
    the ["host"] object and the ["histograms"] array are optional. *)
val of_json_string : string -> (snapshot, string) result

(** One comparison failure, human-readable. *)
type issue = { what : string; detail : string }

val issue_to_string : issue -> string

(** How one baseline stage was judged. *)
type judged = {
  j_name : string;
  j_mean : float option;  (** current mean; [None] when the stage is gone *)
  j_baseline : float;  (** baseline mean *)
  j_limit : float option;
      (** speed-adjusted limit; [None] when the baseline mean is too small
          to gate *)
}

(** Every baseline stage, in baseline order, as {!check} judges it. *)
val judge :
  ?tolerance:float -> baseline:snapshot -> current:snapshot -> unit -> judged list

(** Compare [current] against [baseline]; empty list means the gate
    passes. *)
val check :
  ?tolerance:float ->
  baseline:snapshot ->
  current:snapshot ->
  unit ->
  issue list
