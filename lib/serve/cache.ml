(** Content-addressed LRU cache — semantics in the mli. *)

module Obs = Fetch_obs.Trace

(* serve.cache.* meters: hit-rate and eviction pressure.  The plain
   [stats] record below is the live source of truth (the stats request
   must work even when no trace run is recording); these counters mirror
   it into instrumented runs. *)
let c_hit = Obs.counter "serve.cache.hit"
let c_miss = Obs.counter "serve.cache.miss"
let c_evict = Obs.counter "serve.cache.evictions"

type key = string

let binary_key bytes = Digest.to_hex (Digest.string bytes)

(* Intrusive doubly-linked LRU list, most-recent at [head].  [prev]
   points toward the head. *)
type node = {
  nkey : string;
  payload : string;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  max_bytes : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable rejected_oversize : int;
}

let create ~max_bytes =
  {
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    max_bytes = max 0 max_bytes;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    rejected_oversize = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.nkey;
      t.bytes <- t.bytes - String.length n.payload;
      t.evictions <- t.evictions + 1;
      Obs.incr c_evict

let add t key payload =
  let size = String.length payload in
  if size > t.max_bytes then t.rejected_oversize <- t.rejected_oversize + 1
  else begin
    (match Hashtbl.find_opt t.tbl key with
    | Some old ->
        unlink t old;
        Hashtbl.remove t.tbl key;
        t.bytes <- t.bytes - String.length old.payload
    | None -> ());
    while t.bytes + size > t.max_bytes do
      evict_lru t
    done;
    let n = { nkey = key; payload; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_front t n;
    t.bytes <- t.bytes + size
  end

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      touch t n;
      t.hits <- t.hits + 1;
      Obs.incr c_hit;
      Some n.payload
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr c_miss;
      None

type stats = {
  entries : int;
  bytes : int;
  max_bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  rejected_oversize : int;
}

let stats t =
  {
    entries = Hashtbl.length t.tbl;
    bytes = t.bytes;
    max_bytes = t.max_bytes;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    rejected_oversize = t.rejected_oversize;
  }

let stats_json t =
  let s = stats t in
  Printf.sprintf
    "{\"entries\":%d,\"bytes\":%d,\"max_bytes\":%d,\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"rejected_oversize\":%d}"
    s.entries s.bytes s.max_bytes s.hits s.misses s.evictions
    s.rejected_oversize
