(** Ambient recorder for spans, counters and histograms.  See the mli
    for the design constraints (zero-cost-when-disabled, domain-local
    recording, deterministic merge). *)

type span = {
  name : string;
  depth : int;
  start_ns : int64;
  dur_ns : int64;
  run : int;
  args : (string * string) list;
}

(* Instrument handles are immutable and interned by name in a global,
   mutex-protected registry: [c_id]/[h_id] index the per-domain value
   arrays.  Registration normally happens at module initialisation on
   the primary domain, but a worker domain registering lazily is also
   safe — the registry lock serialises id assignment, and every domain
   grows its value arrays on demand. *)
type counter = { c_name : string; c_id : int }
type histogram = { h_name : string; h_id : int }

(* Histograms bucket observations on a log-2 scale: bucket 0 holds
   values <= 0, bucket i (1 <= i <= 62) holds [2^(i-1), 2^i), and the
   last bucket is a catch-all.  63 buckets cover the whole int range. *)
let n_buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and x = ref v in
    while !x > 0 do
      incr i;
      x := !x lsr 1
    done;
    min !i (n_buckets - 1)
  end

(* Inclusive value range of bucket [i] (for percentile interpolation). *)
let bucket_bounds i =
  if i = 0 then (0, 0)
  else if i = n_buckets - 1 then (1 lsl (i - 1), max_int)
  else (1 lsl (i - 1), (1 lsl i) - 1)

type hist_stats = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : int array;  (** log-2 bucket occupancy, length {!n_buckets} *)
}

let empty_hist_stats =
  { count = 0; sum = 0; min = 0; max = 0; buckets = Array.make n_buckets 0 }

(* A mutable log-2 histogram cell: what a run keeps per registered
   histogram, and what a long-lived meter keeps outside any run. *)
module Hist = struct
  type t = {
    mutable count : int;
    mutable sum : int;
    mutable min : int;
    mutable max : int;
    buckets : int array;
  }

  let create () =
    { count = 0; sum = 0; min = 0; max = 0; buckets = Array.make n_buckets 0 }

  let observe h v =
    if h.count = 0 || v < h.min then h.min <- v;
    if h.count = 0 || v > h.max then h.max <- v;
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1

  let stats h : hist_stats =
    {
      count = h.count;
      sum = h.sum;
      min = h.min;
      max = h.max;
      buckets = Array.copy h.buckets;
    }
end

let hist_stats_of_values vs =
  let h = Hist.create () in
  List.iter (Hist.observe h) vs;
  Hist.stats h

(* Nearest-rank percentile estimated from the buckets: find the bucket
   holding the rank-th observation, interpolate linearly inside its
   value range by rank position, clamp to the recorded [min, max]. *)
let percentile (h : hist_stats) p =
  if h.count = 0 then 0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.count)))
    in
    let est = ref h.max in
    (try
       let cum = ref 0 in
       for i = 0 to n_buckets - 1 do
         let cb = h.buckets.(i) in
         if cb > 0 then begin
           if rank <= !cum + cb then begin
             let lo, hi = bucket_bounds i in
             let frac = float_of_int (rank - !cum) /. float_of_int cb in
             est :=
               lo
               + int_of_float
                   (Float.round (frac *. float_of_int (Stdlib.min hi h.max - lo)));
             raise Exit
           end;
           cum := !cum + cb
         end
       done
     with Exit -> ());
    Stdlib.max h.min (Stdlib.min h.max !est)
  end

type report = {
  spans : span list;
  counters : (string * int) list;
  histograms : (string * hist_stats) list;
}

(* ---- global registry (names and ids only; no recorded values) ---- *)

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let rev_counter_names : string list ref = ref []
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let rev_histogram_names : string list ref = ref []

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counter name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_id = Hashtbl.length counters } in
      Hashtbl.replace counters name c;
      rev_counter_names := name :: !rev_counter_names;
      c

let histogram name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      let h = { h_name = name; h_id = Hashtbl.length histograms } in
      Hashtbl.replace histograms name h;
      rev_histogram_names := name :: !rev_histogram_names;
      h

(* ---- per-domain run state ---- *)

(* An open (not yet completed) span: args can still be attached to it
   through [set_arg] until it closes. *)
type open_span = {
  os_name : string;
  os_depth : int;
  os_start : int64;
  mutable os_args : (string * string) list;
}

(* One recording context per domain, reached through domain-local
   storage.  Only the owning domain ever touches its context, so none
   of these fields need synchronisation. *)
type ctx = {
  mutable live : bool;
  mutable epoch : int64;
  mutable depth : int;
  mutable run_id : int;
  mutable open_spans : open_span list;  (** innermost first *)
  mutable completed : span list;
  mutable counts : int array;  (** indexed by [c_id] *)
  mutable hists : Hist.t array;  (** indexed by [h_id] *)
}

let ctx_key =
  Domain.DLS.new_key (fun () ->
      {
        live = false;
        epoch = 0L;
        depth = 0;
        run_id = 0;
        open_spans = [];
        completed = [];
        counts = [||];
        hists = [||];
      })

let ctx () = Domain.DLS.get ctx_key

(* Lazily size the context's value arrays to the registry: a handle
   registered after this domain's [start] still records correctly. *)
let count_slot t (c : counter) =
  if c.c_id >= Array.length t.counts then begin
    let a = Array.make (c.c_id + 1) 0 in
    Array.blit t.counts 0 a 0 (Array.length t.counts);
    t.counts <- a
  end;
  c.c_id

let hist_slot t (h : histogram) =
  if h.h_id >= Array.length t.hists then begin
    let a = Array.init (h.h_id + 1) (fun _ -> Hist.create ()) in
    Array.blit t.hists 0 a 0 (Array.length t.hists);
    t.hists <- a
  end;
  t.hists.(h.h_id)

let enabled () = (ctx ()).live

let incr c =
  let t = ctx () in
  if t.live then begin
    let i = count_slot t c in
    t.counts.(i) <- t.counts.(i) + 1
  end

let add c n =
  let t = ctx () in
  if t.live then begin
    let i = count_slot t c in
    t.counts.(i) <- t.counts.(i) + n
  end

let value c =
  let t = ctx () in
  if c.c_id < Array.length t.counts then t.counts.(c.c_id) else 0

let observe h v =
  let t = ctx () in
  if t.live then Hist.observe (hist_slot t h) v

let registered_sizes () =
  with_registry @@ fun () ->
  ( Hashtbl.length counters,
    List.rev !rev_counter_names,
    Hashtbl.length histograms,
    List.rev !rev_histogram_names )

(* Run identifiers tag every span of one [start]..[stop] bracket, so
   spans from different runs stay distinguishable after {!merge}
   (the Chrome exporter renders each run as its own track). *)
let run_counter = Atomic.make 1

let start () =
  let t = ctx () in
  let n_counters, _, n_hists, _ = registered_sizes () in
  t.counts <- Array.make (max 1 n_counters) 0;
  t.hists <- Array.init (max 1 n_hists) (fun _ -> Hist.create ());
  t.completed <- [];
  t.open_spans <- [];
  t.depth <- 0;
  t.run_id <- Atomic.fetch_and_add run_counter 1;
  t.epoch <- Clock.now_ns ();
  t.live <- true

let stop () =
  let t = ctx () in
  t.live <- false;
  t.open_spans <- [];
  let spans =
    (* pre-order: by start time, parents (lower depth) before the
       children they opened at the same instant *)
    List.stable_sort
      (fun a b ->
        match Int64.compare a.start_ns b.start_ns with
        | 0 -> Stdlib.compare a.depth b.depth
        | c -> c)
      (List.rev t.completed)
  in
  t.completed <- [];
  let _, counter_names, _, histogram_names = registered_sizes () in
  let nth_count i = if i < Array.length t.counts then t.counts.(i) else 0 in
  let nth_hist i =
    if i < Array.length t.hists then Hist.stats t.hists.(i)
    else empty_hist_stats
  in
  {
    spans;
    counters = List.mapi (fun i n -> (n, nth_count i)) counter_names;
    histograms = List.mapi (fun i n -> (n, nth_hist i)) histogram_names;
  }

let span ?(args = []) name f =
  let t = ctx () in
  if not t.live then f ()
  else begin
    let os =
      { os_name = name; os_depth = t.depth; os_start = Clock.now_ns (); os_args = args }
    in
    t.depth <- os.os_depth + 1;
    t.open_spans <- os :: t.open_spans;
    Fun.protect
      ~finally:(fun () ->
        let dur = Int64.sub (Clock.now_ns ()) os.os_start in
        t.depth <- os.os_depth;
        (match t.open_spans with
        | o :: rest when o == os -> t.open_spans <- rest
        | _ -> (* [stop] ran inside [f] and cleared the stack *) ());
        (* [stop] may have run inside [f] (or an exception unwound past
           it); only record into a live run *)
        if t.live then
          t.completed <-
            {
              name;
              depth = os.os_depth;
              start_ns = Int64.sub os.os_start t.epoch;
              dur_ns = dur;
              run = t.run_id;
              args = List.rev os.os_args;
            }
            :: t.completed)
      f
  end

let set_arg k v =
  let t = ctx () in
  if t.live then
    match t.open_spans with
    | os :: _ ->
        os.os_args <-
          (if List.mem_assoc k os.os_args then
             List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) os.os_args
           else (k, v) :: os.os_args)
    | [] -> ()

let with_run f =
  start ();
  match f () with
  | v -> (v, stop ())
  | exception e ->
      ignore (stop ());
      raise e

(* ---- deterministic merge of per-run reports ---- *)

let merge_hist (a : hist_stats) (b : hist_stats) =
  if a.count = 0 then b
  else if b.count = 0 then a
  else
    {
      count = a.count + b.count;
      sum = a.sum + b.sum;
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
      buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    }

let merge reports =
  let spans = List.concat_map (fun r -> r.spans) reports in
  let sum_by_name get combine =
    let order = ref [] in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun r ->
        List.iter
          (fun (n, v) ->
            match Hashtbl.find_opt tbl n with
            | Some prev -> Hashtbl.replace tbl n (combine prev v)
            | None ->
                Hashtbl.replace tbl n v;
                order := n :: !order)
          (get r))
      reports;
    List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order
  in
  {
    spans;
    counters = sum_by_name (fun r -> r.counters) ( + );
    histograms = sum_by_name (fun r -> r.histograms) merge_hist;
  }
