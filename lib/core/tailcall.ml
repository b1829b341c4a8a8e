(** Algorithm 1: tail-call detection and non-contiguous function merging
    (§V-B) — the fix for FDE-introduced false positives.

    For every direct/conditional jump leaving a function, the jump is a
    tail call iff (1) the CFI-recorded stack height at the jump site is
    zero (rsp right below the return address), (2) the target satisfies the
    calling convention, and (3) the target is referenced somewhere other
    than jumps of the current function.  A jump that is not a tail call,
    whose target has its own FDE and is referenced only by jumps of the
    current function, connects two parts of one non-contiguous function:
    the parts are merged and the target removed from the start list. *)

open Fetch_analysis
module Obs = Fetch_obs.Trace
module Prov = Fetch_obs.Provenance

(* Stage instrumentation: one (jump site, external target) pair is
   examined per height-resolved out-jump and ends in one decision about
   the jump target, a tail call or the first failing rule of Algorithm 1
   (the law below). *)
let c_pairs = Obs.counter "tailcall.pairs_examined"
let d_tail_call = Prov.decision "tailcall.tail_calls" ~ev:"alg1.tail_call" []
let d_merge = Prov.decision "tailcall.merges" ~ev:"alg1.merge" []

let d_skipped =
  Prov.decision "tailcall.skipped_incomplete_cfi" ~ev:"alg1.skip"
    [ ("reason", Prov.S "incomplete_cfi") ]

let rejection rule =
  Prov.decision ("tailcall.reject." ^ rule) ~ev:"alg1.reject" [ ("rule", Prov.S rule) ]

let d_rej_height = rejection "cfa_height"
let d_rej_refs = rejection "jump_only_refs"
let d_rej_callconv = rejection "callconv"

let () =
  Fetch_obs.Law.declare ~total:"tailcall.pairs_examined"
    [ "tailcall.tail_calls"; "tailcall.reject.*" ];
  (* a merge follows only a pair that is not a tail call *)
  Fetch_obs.Law.declare ~rel:Fetch_obs.Law.At_most ~total:"tailcall.merges"
    [ "tailcall.reject.*" ]

type outcome = {
  kept_starts : int list;
  tail_calls : (int * int) list;  (** site, target *)
  merges : (int * int) list;  (** merged secondary start, parent entry *)
  skipped_incomplete : int;  (** functions skipped for incomplete CFI *)
}

(* Is [t] inside function [f] (any of its committed blocks or its entry)? *)
let target_inside (f : Recursive.func) t =
  t = f.entry || List.exists (fun (lo, hi) -> t >= lo && t < hi) f.blocks

(** Where the stack heights at jump sites come from.  The paper's choice is
    the CFI oracle; [Static] plugs in a static analysis instead — the
    ablation §V-B argues against (incomplete/inaccurate heights hurt the
    tail-call test). *)
type height_source =
  | Cfi_oracle
  | Static of Fetch_analysis.Stack_height.style

(** Run Algorithm 1 over the current detection result.  [refs] must be
    the reference census of exactly this [res]. *)
let run ~heights ~refs loaded (res : Recursive.result) =
  Obs.span "tailcall" @@ fun () ->
  let jump_only_refs ~entry t =
    not (Refs.referenced_outside_jumps_of refs ~entry t)
  in
  let starts = Recursive.starts res in
  let removed = Hashtbl.create 16 in
  let tail_calls = ref [] in
  let merges = ref [] in
  let skipped = ref 0 in
  List.iter
    (fun entry ->
      match Hashtbl.find_opt res.funcs entry with
      | None -> ()
      | Some f ->
          let height_at =
            match heights with
            | Cfi_oracle ->
                Fetch_dwarf.Height_oracle.height_at loaded.Loaded.oracle
            | Static style ->
                Fetch_analysis.Stack_height.analyze loaded ~style entry
          in
          (* the paper skips whole functions whose CFI has no complete
             rsp-based height information; the static variant has no such
             self-knowledge and processes everything *)
          if
            heights = Cfi_oracle
            && not
                 (Fetch_dwarf.Height_oracle.complete_at loaded.Loaded.oracle
                    entry)
          then begin
            Prov.decide d_skipped ~addr:entry [];
            incr skipped
          end
          else
            List.iter
              (fun (site, t) ->
                if not (target_inside f t) then
                  match height_at site with
                  | None -> ()
                  | Some h ->
                      Obs.incr c_pairs;
                      (* same short-circuit order as the paper's
                         conjunction; the first failing rule gets the
                         rejection *)
                      let is_tail, d, operands =
                        if h <> 0 then
                          (false, d_rej_height, [ ("height", Prov.I h) ])
                        else if jump_only_refs ~entry t then
                          (false, d_rej_refs, [])
                        else
                          match Callconv.validate loaded res t with
                          | Error v ->
                              (false, d_rej_callconv, Callconv.ledger_fields v)
                          | Ok () -> (true, d_tail_call, [])
                      in
                      Prov.decide d ~addr:t
                        (("site", Prov.I site) :: ("entry", Prov.I entry)
                        :: operands);
                      if is_tail then tail_calls := (site, t) :: !tail_calls
                      else if
                        Loaded.fde_starting_at loaded t
                        && jump_only_refs ~entry t
                        && (not (Hashtbl.mem removed t))
                        && t <> entry
                      then begin
                        Prov.decide d_merge ~addr:t
                          [ ("parent", Prov.I entry); ("site", Prov.I site) ];
                        Hashtbl.replace removed t entry;
                        merges := (t, entry) :: !merges
                      end)
              f.all_jump_sites)
    starts;
  {
    kept_starts = List.filter (fun s -> not (Hashtbl.mem removed s)) starts;
    tail_calls = !tail_calls;
    merges = !merges;
    skipped_incomplete = !skipped;
  }
