(** Image-wide stack-height oracle backed by CFI tables.

    FETCH's Algorithm 1 consults this instead of a static stack-height
    analysis: for a jump site it answers "what is the stack height here?",
    but only inside functions whose CFI passes the completeness test of
    §V-B — other functions are skipped, which is exactly the paper's
    conservative implementation choice. *)

type entry = {
  fde : Eh_frame.fde;
  rows : Cfa_table.row list;
  complete : bool;
}

module Imap = Map.Make (Int)

(* FDE ranges keyed by [lo], payload [(hi, entry)]; pairwise disjoint. *)
type t = { map : (int * entry) Imap.t }

(* A later FDE evicts every earlier FDE it overlaps, even partly: the
   last FDE of an overlapping run is the one that describes its bytes. *)
let add_override m ~lo ~hi e =
  let rec clear m =
    match Imap.find_last_opt (fun k -> k < hi) m with
    | Some (k, (h, _)) when h > lo -> clear (Imap.remove k m)
    | Some _ | None -> m
  in
  Imap.add lo (hi, e) (clear m)

let create cies =
  let map =
    List.fold_left
      (fun map (cie : Eh_frame.cie) ->
        List.fold_left
          (fun map (fde : Eh_frame.fde) ->
            match Cfa_table.rows ~cie fde with
            | Ok rows when fde.pc_range > 0 ->
                let complete = Cfa_table.complete_rsp_heights rows in
                add_override map ~lo:fde.pc_begin
                  ~hi:(fde.pc_begin + fde.pc_range)
                  { fde; rows; complete }
            | Ok _ | Error _ -> map)
          map cie.fdes)
      Imap.empty cies
  in
  { map }

let entry_at t addr =
  match Imap.find_last_opt (fun lo -> lo <= addr) t.map with
  | Some (_, (hi, e)) when addr < hi -> Some e
  | Some _ | None -> None

(** Is [addr] inside a function whose CFI gives complete rsp-based
    heights? *)
let complete_at t addr =
  match entry_at t addr with Some e -> e.complete | None -> false

(** Stack height at [addr]; [None] outside FDE coverage or where the CFI
    is incomplete. *)
let height_at t addr =
  match entry_at t addr with
  | Some e when e.complete ->
      Cfa_table.height_at e.rows (addr - e.fde.pc_begin)
  | Some _ | None -> None

(* The FDE range of the last answer ([lo = hi] before the first), and,
   when its CFI is complete, its rows from the one in effect at the last
   offset asked ([at]). *)
type cursor = {
  mutable lo : int;
  mutable hi : int;
  mutable complete : bool;
  mutable rows : Cfa_table.row list;
  mutable at : Cfa_table.row list;
  mutable off : int;
}

(* the rows from the last one at or before [off] on *)
let rec step_to off = function
  | _ :: (r :: _ as rest) when r.Cfa_table.loc <= off -> step_to off rest
  | at -> at

let along t =
  let c = { lo = 0; hi = 0; complete = false; rows = []; at = []; off = 0 } in
  fun addr ->
    if addr < c.lo || addr >= c.hi then begin
      match entry_at t addr with
      | Some e ->
          c.lo <- e.fde.pc_begin;
          c.hi <- e.fde.pc_begin + e.fde.pc_range;
          c.complete <- e.complete;
          c.rows <- e.rows;
          c.at <- e.rows;
          c.off <- 0
      | None ->
          c.lo <- 0;
          c.hi <- 0
    end;
    if addr < c.lo || addr >= c.hi || not c.complete then None
    else begin
      let off = addr - c.lo in
      if off < c.off then c.at <- c.rows;
      c.off <- off;
      c.at <- step_to off c.at;
      match c.at with
      | r :: _ when r.Cfa_table.loc <= off -> Cfa_table.row_height r
      | _ -> None
    end

(** Height regardless of the completeness test — for a fragment's FDE
    start, which lies mid-frame (see the interface). *)
let height_at_unchecked t addr =
  match entry_at t addr with
  | Some e -> Cfa_table.height_at e.rows (addr - e.fde.pc_begin)
  | None -> None
