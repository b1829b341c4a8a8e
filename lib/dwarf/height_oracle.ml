(** Image-wide stack-height oracle backed by CFI tables.

    FETCH's Algorithm 1 consults this instead of a static stack-height
    analysis: for a jump site it answers "what is the stack height here?",
    but only inside functions whose CFI passes the completeness test of
    §V-B — other functions are skipped, which is exactly the paper's
    conservative implementation choice. *)

open Fetch_util

type entry = {
  fde : Eh_frame.fde;
  rows : Cfa_table.row list;
  complete : bool;
}

type t = { map : entry Interval_map.t }

let create cies =
  let map = Interval_map.create () in
  List.iter
    (fun (cie : Eh_frame.cie) ->
      List.iter
        (fun (fde : Eh_frame.fde) ->
          match Cfa_table.rows ~cie fde with
          | rows ->
              let complete = Cfa_table.complete_rsp_heights rows in
              if fde.pc_range > 0 then
                Interval_map.add_override map ~lo:fde.pc_begin
                  ~hi:(fde.pc_begin + fde.pc_range)
                  { fde; rows; complete }
          | exception Cfa_table.Unsupported _ -> ())
        cie.fdes)
    cies;
  { map }

let entry_at t addr =
  match Interval_map.find t.map addr with
  | Some (_, _, e) -> Some e
  | None -> None

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

(** Height regardless of the completeness test — for a fragment's FDE
    start, which lies mid-frame (see the interface). *)
let height_at_unchecked t addr =
  match entry_at t addr with
  | Some e -> Cfa_table.height_at e.rows (addr - e.fde.pc_begin)
  | None -> None
