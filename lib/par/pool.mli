(** A fixed-size pool of OCaml domains draining a shared work queue.

    Built for corpus-scale batch analysis and the serve daemon:
    per-binary tasks are embarrassingly parallel, each task is isolated
    (an exception in one becomes a structured {!failure} record and
    never aborts the batch), and results come back in {e submission
    order}, so a parallel run is a drop-in replacement for the
    sequential loop it speeds up.

    One mechanism runs every task: {!submit} enqueues one task and
    returns a {!future} to poll or await, with an optional cooperative
    cancellation hook checked before the task runs (how the serve
    daemon sheds queued requests whose deadline already passed without
    poisoning a worker).  {!map} is [submit] per element plus [await]
    in order.

    Tasks must not share mutable state: the observability layer is
    per-domain ({!Fetch_obs.Trace}'s domain-safety contract), and each
    task should bracket its own [Fetch_obs.Trace.with_run] if it wants a
    report.  Nested use of the pool from inside a task is not
    supported. *)

type t

(** One task's captured exception: the task's submission index (0 for
    [submit]-style tasks), the caller-supplied label (for attribution in
    reports), the printed exception and the backtrace (possibly empty
    when backtrace recording is off). *)
type failure = {
  f_index : int;
  f_label : string;
  f_exn : string;
  f_backtrace : string;
}

val failure_to_string : failure -> string

(** [create ~domains ()] spawns a pool of [domains] worker domains
    (default {!default_domains}).  Raises [Invalid_argument] when
    [domains < 1]. *)
val create : ?domains:int -> unit -> t

(** Number of worker domains. *)
val size : t -> int

(** [Domain.recommended_domain_count], at least 1. *)
val default_domains : unit -> int

(** Drain the queue, then stop and join every worker.  Idempotent.
    Queued tasks finish first; new [map]/[submit] calls after shutdown
    raise. *)
val shutdown : t -> unit

(** [with_pool ~domains f] is [f (create ~domains ())] with a guaranteed
    [shutdown], even when [f] raises. *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a

(** {2 Streaming tasks} *)

(** How one submitted task ended. *)
type 'a outcome =
  | Value of 'a  (** the task ran and returned *)
  | Fail of failure  (** the task ran and raised *)
  | Cancelled
      (** the [cancel] hook returned [true] when a worker dequeued the
          task; the task body never ran *)

(** Handle on one submitted task. *)
type 'a future

(** [submit t ~cancel ~label f] enqueues [f] and returns immediately.
    When a worker dequeues the task it first evaluates [cancel ()]
    (default [fun () -> false]); [true] resolves the future as
    {!Cancelled} without running [f] — the cooperative cancellation
    hook.  [cancel] runs on the worker domain and must be fast and
    non-raising (a raise counts as [false] and the task runs).  Raises
    [Invalid_argument] after {!shutdown}. *)
val submit :
  t -> ?cancel:(unit -> bool) -> ?label:string -> (unit -> 'a) -> 'a future

(** Non-blocking: the outcome if the task already finished. *)
val poll : 'a future -> 'a outcome option

(** Block until the task finishes. *)
val await : 'a future -> 'a outcome

(** {2 Batch maps} *)

(** [map t ~label f xs] submits [f x] for every element and awaits the
    futures in order.  The result list is in the order of [xs]
    regardless of scheduling, one entry per element: [Ok (f x)], or
    [Error failure] when [f x] raised — a raising task never affects the
    others.  [label i x] names task [i] in its failure record. *)
val map :
  t ->
  ?label:(int -> 'a -> string) ->
  ('a -> 'b) ->
  'a list ->
  ('b, failure) result list
