(* Self time of trace spans, from their depth and intervals.

   A span's self time is its duration minus the part of its interval
   that its direct children cover.  [Fetch_obs.Trace.stop] returns the
   spans of a run in pre-order with their depth, so a span's children
   are the spans after it that are one level deeper, up to the next span
   at its own depth or shallower.  Summing self times over a tree counts
   every nanosecond once, which summing inclusive times does not. *)

module Trace = Fetch_obs.Trace

(* The part of [c]'s interval inside [p]'s. *)
let overlap (p : Trace.span) (c : Trace.span) =
  let p_end = Int64.add p.start_ns p.dur_ns
  and c_end = Int64.add c.start_ns c.dur_ns in
  let lo = max p.start_ns c.start_ns and hi = min p_end c_end in
  if hi > lo then Int64.sub hi lo else 0L

(* Every span of one run, paired with its self time in ns. *)
let self_times (spans : Trace.span list) =
  let a = Array.of_list spans in
  let n = Array.length a in
  Array.to_list
    (Array.mapi
       (fun i (s : Trace.span) ->
         let covered = ref 0L and j = ref (i + 1) in
         while !j < n && a.(!j).depth > s.depth do
           if a.(!j).depth = s.depth + 1 then
             covered := Int64.add !covered (overlap s a.(!j));
           incr j
         done;
         (s, max 0L (Int64.sub s.dur_ns !covered)))
       a)

(* Per-name totals over many runs. *)
type total = { mutable calls : int; mutable incl_ns : int64; mutable self_ns : int64 }

type t = (string, total) Hashtbl.t

let create () : t = Hashtbl.create 32

(* Add one run's spans.  Inclusive time counts only a name's outermost
   spans, so a name nested under itself is not counted twice. *)
let add (t : t) spans =
  let open_depths = Hashtbl.create 8 in
  List.iter
    (fun ((s : Trace.span), self) ->
      let tot =
        match Hashtbl.find_opt t s.name with
        | Some tot -> tot
        | None ->
            let tot = { calls = 0; incl_ns = 0L; self_ns = 0L } in
            Hashtbl.replace t s.name tot;
            tot
      in
      tot.calls <- tot.calls + 1;
      tot.self_ns <- Int64.add tot.self_ns self;
      let nested =
        match Hashtbl.find_opt open_depths s.name with
        | Some (d, end_ns) -> d < s.depth && s.start_ns < end_ns
        | None -> false
      in
      if not nested then begin
        tot.incl_ns <- Int64.add tot.incl_ns s.dur_ns;
        Hashtbl.replace open_depths s.name
          (s.depth, Int64.add s.start_ns s.dur_ns)
      end)
    (self_times spans)

let get (t : t) name =
  match Hashtbl.find_opt t name with
  | Some tot -> tot
  | None -> { calls = 0; incl_ns = 0L; self_ns = 0L }

(* Total duration of the top-level (depth 0) spans of one run: equal to
   the sum of every span's self time when children nest inside their
   parents. *)
let top_level_ns spans =
  List.fold_left
    (fun acc (s : Trace.span) -> if s.depth = 0 then Int64.add acc s.dur_ns else acc)
    0L spans
