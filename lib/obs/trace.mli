(** Pipeline instrumentation: hierarchical timing spans over the
    monotonic clock, plus named counters and histograms registered by the
    pipeline stages.  There is one histogram implementation, {!Hist}: a
    run keeps one cell per registered histogram, and a meter that must
    answer outside any run keeps its own.

    The design is ambient and zero-cost-when-disabled: counters and
    spans are module-level handles created once at module initialisation
    (interned by name), and every recording operation is a domain-local
    load plus a branch while no run is active — no clock read, no
    allocation.  [start]/[stop] (or [with_run]) bracket an instrumented
    run; [stop] snapshots every registered instrument into an immutable
    {!report}.

    {2 Domain-safety contract}

    Recording state is {e per-domain}: every domain owns an independent
    trace context (reached through domain-local storage), and
    [start]/[incr]/[observe]/[span]/[stop] only ever touch the calling
    domain's context.  Two domains recording concurrently therefore
    never contend, never corrupt each other's values, and produce
    exactly the reports they would have produced running alone.  The
    rules:

    - Handles ({!counter}, {!histogram}) are immutable, globally
      interned and freely shared across domains; registration is
      serialised by a lock and may happen from any domain at any time.
    - A run belongs to the domain that called [start]: [stop] must be
      called on that same domain, and spans/increments recorded on other
      domains land in {e their} contexts, not the run's.  To instrument
      a parallel computation, bracket each task with [with_run] on its
      worker domain and combine the per-task reports with {!merge}.
    - [merge] is deterministic: given the same list of reports it
      returns the same merged report, independent of how many domains
      produced them or in what order they ran.  Counter merge is
      addition, so linear counter invariants (e.g.
      [xref.candidates_scanned = accepted + Σ rejects]) that hold for
      every per-task report also hold for the merged report. *)

(** A completed timing span.  [start_ns] is relative to the start of the
    enclosing run, so reports are stable across processes.  [run] is the
    process-unique id of the [start]..[stop] bracket that recorded the
    span (so merged reports keep runs apart — the Chrome exporter gives
    each run its own track); [args] are key/value annotations attached
    at open time or via {!set_arg}. *)
type span = {
  name : string;
  depth : int;
  start_ns : int64;
  dur_ns : int64;
  run : int;
  args : (string * string) list;
}

(** A named monotonically increasing counter. *)
type counter

(** A named value distribution: count / sum / min / max plus log-2
    bucket occupancy for percentile estimation. *)
type histogram

(** Number of log-2 buckets: bucket 0 holds values [<= 0], bucket [i]
    ([1 <= i < n_buckets - 1]) holds [2^(i-1) .. 2^i - 1], the last
    bucket is a catch-all up to [max_int]. *)
val n_buckets : int

type hist_stats = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : int array;  (** length {!n_buckets} *)
}

(** All-zero stats (the snapshot of a never-observed histogram). *)
val empty_hist_stats : hist_stats

(** A mutable log-2 histogram cell.  Every run keeps one per registered
    {!histogram}; a meter that must answer outside any run (the serve
    engine's latency) keeps its own.  Not synchronised: one owner. *)
module Hist : sig
  type t

  val create : unit -> t
  val observe : t -> int -> unit

  (** A snapshot; later observations do not alter it. *)
  val stats : t -> hist_stats
end

(** Build stats from raw observations (for tests and goldens). *)
val hist_stats_of_values : int list -> hist_stats

(** [percentile h p] estimates the [p]-th percentile ([0..100],
    nearest-rank) from the log-2 buckets, linearly interpolated inside
    the bucket and clamped to [[h.min, h.max]] — so it is exact for
    [p = 100], within a factor of 2 elsewhere, and always inside the
    observed range.  0 when the histogram is empty. *)
val percentile : hist_stats -> float -> int

(** Snapshot of one instrumented run.  Spans are in pre-order (start
    time, then depth); counters and histograms are in registration
    order and include every registered instrument, populated or not. *)
type report = {
  spans : span list;
  counters : (string * int) list;
  histograms : (string * hist_stats) list;
}

(** [counter name] registers (or returns the already-registered) counter
    called [name]. *)
val counter : string -> counter

(** Increment by one.  No-op while the calling domain has no live run. *)
val incr : counter -> unit

(** Increment by [n].  No-op while the calling domain has no live run. *)
val add : counter -> int -> unit

(** Current value in the calling domain's context (0 after [start]). *)
val value : counter -> int

(** [histogram name] registers (or returns) the histogram called [name]. *)
val histogram : string -> histogram

(** Record one observation.  No-op while the calling domain has no live
    run. *)
val observe : histogram -> int -> unit

(** Is a run currently being recorded on the calling domain? *)
val enabled : unit -> bool

(** Reset every registered instrument and begin recording on the calling
    domain. *)
val start : unit -> unit

(** Stop recording on the calling domain and snapshot the run. *)
val stop : unit -> report

(** [span name f] times [f] as a span named [name], nested under any
    span currently open on this domain.  While disabled this is exactly
    [f ()].  The span is recorded even when [f] raises.  [args]
    annotates the span at open time; more can be attached while it is
    open with {!set_arg}. *)
val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [set_arg k v] attaches (or overwrites) argument [k] on the
    innermost span currently open on this domain.  No-op when no run is
    live or no span is open — so instrumentation can annotate spans
    (e.g. the xref round span with the pointer that round accepted)
    without owning the span bracket. *)
val set_arg : string -> string -> unit

(** [with_run f] is [start]; [f ()]; [stop] — returning [f]'s result and
    the report.  Recording is switched off again if [f] raises. *)
val with_run : (unit -> 'a) -> 'a * report

(** [merge reports] combines per-task reports (e.g. one per binary of a
    parallel batch) into one: spans are concatenated in report order
    (each span's [start_ns] stays relative to its own run — aggregate
    by name, don't compare across runs), counters are summed and
    histograms are combined (count/sum added, min/max widened, empty
    cells ignored).  Instrument order is first-appearance order across
    the report list, which for reports produced by this module is
    registration order.  Deterministic: independent of domain count and
    scheduling. *)
val merge : report list -> report
