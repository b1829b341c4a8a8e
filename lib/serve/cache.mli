(** Content-addressed analysis cache with an LRU byte budget.

    One level: entries are keyed by the digest of the whole binary's
    bytes and hold the serialized {!Fetch_core.Summary} payload.  A hit
    answers the request without touching the pipeline at all; a miss
    runs the whole pipeline, [.eh_frame] decode included.

    Inserting past the budget evicts least-recently-used entries until
    the new entry fits.  An entry larger than the whole budget is not
    stored.  An entry is charged its payload's string length, which is
    all the entry holds, so the budget bounds the cached bytes.

    Not thread-safe: the serve engine confines every access to its
    dispatch thread. *)

type t

(** Cache keys are hex digests — derive them with {!binary_key}. *)
type key = string

(** Digest of a whole binary's bytes. *)
val binary_key : string -> key

val create : max_bytes:int -> t
val find : t -> key -> string option
val add : t -> key -> string -> unit

(** {2 Introspection} *)

type stats = {
  entries : int;  (** live entries *)
  bytes : int;  (** charged bytes *)
  max_bytes : int;
  hits : int;
  misses : int;
  evictions : int;  (** entries evicted by the byte budget *)
  rejected_oversize : int;  (** inserts skipped: entry alone > budget *)
}

val stats : t -> stats

(** One JSON object (the [stats] response's ["cache"] field). *)
val stats_json : t -> string
