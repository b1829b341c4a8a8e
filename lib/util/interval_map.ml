(** Map from disjoint half-open address intervals [\[lo, hi)] to values
    (FDE ranges, function extents; instruction spans live in
    {!Insn_index}). *)

module Imap = Map.Make (Int)

type 'a t = { mutable m : (int * 'a) Imap.t }
(* key = lo, payload = (hi, value) *)

let create () = { m = Imap.empty }

let is_empty t = Imap.is_empty t.m
let cardinal t = Imap.cardinal t.m

(** [find t addr] is the binding whose interval contains [addr]. *)
let find t addr =
  match Imap.find_last_opt (fun lo -> lo <= addr) t.m with
  | Some (lo, (hi, v)) when addr < hi -> Some (lo, hi, v)
  | Some _ | None -> None

let mem t addr = Option.is_some (find t addr)

(** [overlaps t ~lo ~hi] is true when [\[lo, hi)] intersects any interval. *)
let overlaps t ~lo ~hi =
  if hi <= lo then false
  else
    match Imap.find_last_opt (fun k -> k < hi) t.m with
    | Some (_, (h, _)) -> h > lo
    | None -> false

(** [add t ~lo ~hi v] binds [\[lo, hi)]; raises [Invalid_argument] on
    overlap with an existing interval. *)
let add t ~lo ~hi v =
  if hi <= lo then invalid_arg "Interval_map.add: empty interval";
  if overlaps t ~lo ~hi then invalid_arg "Interval_map.add: overlap";
  t.m <- Imap.add lo (hi, v) t.m

(** Like [add] but replaces anything the new interval overlaps. *)
let add_override t ~lo ~hi v =
  if hi <= lo then invalid_arg "Interval_map.add_override";
  let rec clear () =
    match Imap.find_last_opt (fun k -> k < hi) t.m with
    | Some (k, (h, _)) when h > lo ->
        t.m <- Imap.remove k t.m;
        clear ()
    | Some _ | None -> ()
  in
  clear ();
  t.m <- Imap.add lo (hi, v) t.m

(** [add_max t ~lo ~hi v] binds [\[lo, hi)] byte-wise, resolving overlap
    toward the larger value (polymorphic compare): overlapping intervals
    with a value [>= v] keep their bytes, smaller ones lose exactly the
    contested bytes (their parts outside [\[lo, hi)] survive), and what
    remains of [\[lo, hi)] gets [v].  The byte → value function this
    builds depends only on the {e set} of insertions, never their order
    — the property that lets an incrementally grown map equal its
    from-scratch rebuild. *)
let add_max t ~lo ~hi v =
  if hi <= lo then invalid_arg "Interval_map.add_max";
  (* overlapping intervals, collected without mutating *)
  let rec scan below acc =
    match Imap.find_last_opt (fun k -> k < below) t.m with
    | Some (k, (h, v')) when h > lo -> scan k ((k, h, v') :: acc)
    | Some _ | None -> acc
  in
  let ovs = scan hi [] in
  (* losers keep only their bytes outside [lo, hi) *)
  List.iter
    (fun (k, h, v') ->
      if compare v' v < 0 then begin
        t.m <- Imap.remove k t.m;
        if k < lo then t.m <- Imap.add k (lo, v') t.m;
        if h > hi then t.m <- Imap.add hi (h, v') t.m
      end)
    ovs;
  (* v fills whatever the surviving (>= v) overlaps leave uncovered *)
  let winners =
    List.filter_map
      (fun (k, h, v') ->
        if compare v' v >= 0 then Some (max k lo, min h hi) else None)
      ovs
  in
  let rec fill at = function
    | [] -> if at < hi then t.m <- Imap.add at (hi, v) t.m
    | (wlo, whi) :: rest ->
        if at < wlo then t.m <- Imap.add at (wlo, v) t.m;
        fill (max at whi) rest
  in
  fill lo winners

let remove t lo = t.m <- Imap.remove lo t.m

let iter t f = Imap.iter (fun lo (hi, v) -> f ~lo ~hi v) t.m
let fold t f init = Imap.fold (fun lo (hi, v) acc -> f ~lo ~hi v acc) t.m init

let to_list t = List.rev (fold t (fun ~lo ~hi v acc -> (lo, hi, v) :: acc) [])

(** First interval starting at or after [addr]. *)
let next_from t addr =
  match Imap.find_first_opt (fun lo -> lo >= addr) t.m with
  | Some (lo, (hi, v)) -> Some (lo, hi, v)
  | None -> None
