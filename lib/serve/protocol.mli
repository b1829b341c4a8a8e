(** The serve daemon's wire protocol: JSON lines in, JSON lines out.

    One request per input line, one response per request, streamed back
    {e in request order}.  The full schema (field semantics, error
    codes, examples) is specified in DESIGN.md §"The serve daemon";
    this module is the single place that parses and prints it.

    Requests:
    {v
    {"op":"analyze","id":…,"path":"/bin/ls","deadline_ms":500,
     "want":["starts","eh","diags","findings"]}
    {"op":"analyze","id":…,"bytes_b64":"f0VMRg…"}
    {"op":"stats","id":…}
    v}
    [op] defaults to ["analyze"]; exactly one of [path]/[bytes_b64] must
    be present; [id] is any JSON value and is echoed verbatim; [want]
    defaults to every field group.

    Responses:
    {v
    {"id":…,"status":"ok","starts":[…],…}
    {"id":…,"status":"error","code":"bad_request","message":"…"}
    v} *)

module Json = Fetch_util.Json

(** Structured error codes (the serve daemon's whole failure surface). *)
type error_code =
  | Bad_request  (** unparsable / invalid / oversized request line *)
  | Overloaded  (** bounded queue full — the 429 shed path *)
  | Deadline_exceeded  (** [deadline_ms] elapsed before completion *)
  | Analysis_failed  (** the pipeline raised or the bytes are not ELF *)

(** The wire name of a code: ["bad_request"], ["overloaded"],
    ["deadline_exceeded"], ["analysis_failed"]. *)
val error_code_label : error_code -> string

(** Which field groups of the summary a response carries. *)
type want = { w_starts : bool; w_eh : bool; w_diags : bool; w_findings : bool }

val want_all : want

(** A validated analyze request. *)
type analyze = {
  source : [ `Path of string | `Bytes of string ];  (** decoded bytes *)
  deadline_ms : int option;  (** relative to receipt; must be >= 0 *)
  want : want;
}

type op = Analyze of analyze | Stats

type request = {
  id : Json.t option;  (** echoed verbatim in the response *)
  op : op;
}

(** Parse and validate one request line.  [Error msg] covers: not JSON,
    not an object, unknown [op], unknown [want] member, both or neither
    of [path]/[bytes_b64], undecodable base64, negative or non-integer
    [deadline_ms], wrong field types.  The request [id], when one could
    be recovered, is returned alongside so the error response can still
    echo it. *)
val parse_request : string -> (request, Json.t option * string) result

(** {2 Responses} (no trailing newline) *)

(** [ok_response ~id ~want summary_json] renders a success response from
    a serialized {!Fetch_core.Summary} payload (fresh or cached — same
    input, same bytes, which is what makes cached responses
    byte-identical).  Fields not selected by [want] are dropped. *)
val ok_response : id:Json.t option -> want:want -> string -> string

val error_response :
  id:Json.t option -> code:error_code -> message:string -> string

(** [stats_response ~id body] wraps an already-rendered stats JSON
    object. *)
val stats_response : id:Json.t option -> string -> string
