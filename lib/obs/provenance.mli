(** The decision ledger: structured provenance for every function-start
    verdict the pipeline makes.

    Aggregate counters ([xref.reject.mid_instruction: 2698]) say {e how
    often} a rule fired; the ledger says {e why address X} was accepted
    or rejected.  Every candidate function start gets an origin event
    (FDE seed, symbol seed, xref acceptance with its round and the
    accepting pointer's site, recursive discovery from a call site) and
    every rejection a structured reason (the Algorithm 1 rule id with
    its operands, the §IV-E rejection class with its call-convention
    evidence, the Fig. 6b broken-FDE diagnostic).  [fetch analyze
    --provenance] exports the ledger as JSON lines and [fetch explain]
    replays one address's decision chain.

    The recorder follows the {!Trace} design exactly: events are
    recorded into a per-domain context, recording is a no-op (one
    domain-local load and a branch) while no ledger run is live on the
    calling domain, and instrumentation sites guard any extra evidence
    gathering behind {!enabled}.  Either recorder can run without the
    other; a {!decision} ties one {!Trace} counter to one event, so a
    verdict is counted and recorded by the same call.

    {2 Event schema (stable)}

    One event is one JSON object (one line in JSONL exports):

    {v
    {"v":1,"ev":"<event id>","addr":<int>, <fields...>}
    v}

    - ["v"] — schema version, currently 1.
    - ["ev"] — the event id, a dotted lowercase identifier
      (e.g. ["xref.accept"], ["alg1.reject"]).
    - ["addr"] — the {e subject} address: the candidate function start
      this event is evidence about.
    - remaining fields are event-specific operands, each an int or a
      string; names are stable per event id (documented in DESIGN.md).

    Scope fields (e.g. the xref round index) are appended to every
    event emitted inside {!with_scope}, so deep layers need not thread
    round numbers explicitly. *)

type value = I of int | S of string

type event = {
  ev : string;  (** event id, e.g. ["xref.accept"] *)
  addr : int;  (** subject address *)
  fields : (string * value) list;  (** operands, in emission order *)
}

(** Is a ledger run live on the calling domain?  Guard any non-trivial
    evidence collection (e.g. re-running a diagnostic validator) behind
    this. *)
val enabled : unit -> bool

(** Record one event.  No-op while the calling domain has no live
    ledger run. *)
val emit : ev:string -> addr:int -> (string * value) list -> unit

(** A verdict that is both counted and recorded: the {!Trace} counter
    [counter] and the event [ev] with its fixed leading fields (a
    rejection class, an Algorithm 1 rule).  In a run that records both,
    a decision's events number exactly its counter. *)
type decision = private {
  counter : string;
  ev : string;
  fixed : (string * value) list;
  handle : Trace.counter;
}

(** Declare a decision, registering its counter then and there. *)
val decision : string -> ev:string -> (string * value) list -> decision

(** Every declared decision, in declaration order. *)
val decisions : unit -> decision list

(** Bump [d]'s counter and, only while a ledger run is live on the
    calling domain, record [d.ev] about [addr] with [d.fixed @ fields]. *)
val decide : decision -> addr:int -> (string * value) list -> unit

(** [with_scope fields f] appends [fields] to every event emitted by
    [f] on this domain (innermost scope last).  Nests; no-op wrapper
    when no run is live. *)
val with_scope : (string * value) list -> (unit -> 'a) -> 'a

(** Begin recording on the calling domain (clears any previous
    events). *)
val start : unit -> unit

(** Stop recording and return the events in emission order. *)
val stop : unit -> event list

(** [start]; [f ()]; [stop] — recording is switched off again if [f]
    raises. *)
val with_run : (unit -> 'a) -> 'a * event list

(* ---- queries ---- *)

(** Events whose subject is [addr], in emission order. *)
val about : int -> event list -> event list

(** Events mentioning [addr] in any operand field (but with a different
    subject) — e.g. the tail-call verdicts naming it as jump target. *)
val mentioning : int -> event list -> event list

(* ---- rendering ---- *)

(** One event as one JSON object, per the documented schema. *)
val to_json : event -> string

(** Parse one JSON object back into an event (inverse of {!to_json};
    unknown fields are preserved as operands). *)
val of_json : Fetch_util.Json.t -> (event, string) result

(** All events as JSON lines. *)
val to_json_lines : event list -> string

(** Human-readable one-line rendering ("xref.accept 0x401200 round=3
    site=0x404010 via=data"). *)
val render : event -> string

(** The full decision chain for [addr]: its subject events in order,
    then any events mentioning it, each rendered one per line — the
    output of [fetch explain].  Includes a final verdict line. *)
val explain : addr:int -> event list -> string
