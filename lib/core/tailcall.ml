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
   examined per height-resolved out-jump; each non-tail-call verdict is
   attributed to the first failing rule of Algorithm 1. *)
let c_pairs = Obs.counter "tailcall.pairs_examined"
let c_tail_calls = Obs.counter "tailcall.tail_calls"
let c_merges = Obs.counter "tailcall.merges"
let c_skipped = Obs.counter "tailcall.skipped_incomplete_cfi"
let c_rej_height = Obs.counter "tailcall.reject.cfa_height"
let c_rej_refs = Obs.counter "tailcall.reject.jump_only_refs"
let c_rej_callconv = Obs.counter "tailcall.reject.callconv"

type decision =
  | Tail_call of { site : int; target : int }
  | Merged of { site : int; target : int; into : int }

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
let run ?(heights = Cfi_oracle) ~refs loaded (res : Recursive.result) =
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
                let tbl =
                  Fetch_analysis.Stack_height.analyze loaded ~style entry
                in
                Hashtbl.find_opt tbl
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
            Obs.incr c_skipped;
            incr skipped;
            if Prov.enabled () then
              Prov.emit ~ev:"alg1.skip" ~addr:entry
                [ ("reason", Prov.S "incomplete_cfi") ]
          end
          else
            List.iter
              (fun (site, _insn, t) ->
                if not (target_inside f t) then
                  match height_at site with
                  | None -> ()
                  | Some h ->
                      Obs.incr c_pairs;
                      (* Algorithm 1 rule ids for the ledger: the
                         subject of each event is the jump target (the
                         candidate tail-callee / secondary part). *)
                      let reject rule operands =
                        if Prov.enabled () then
                          Prov.emit ~ev:"alg1.reject" ~addr:t
                            (("rule", Prov.S rule)
                            :: ("site", Prov.I site) :: ("entry", Prov.I entry)
                            :: operands)
                      in
                      (* same short-circuit order as the paper's
                         conjunction; the first failing rule gets the
                         rejection *)
                      let is_tail =
                        if h <> 0 then begin
                          Obs.incr c_rej_height;
                          reject "cfa_height" [ ("height", Prov.I h) ];
                          false
                        end
                        else if jump_only_refs ~entry t then begin
                          Obs.incr c_rej_refs;
                          reject "jump_only_refs" [];
                          false
                        end
                        else if
                          not
                            (Callconv.meets_call_conv
                               ~noreturn:(Hashtbl.mem res.noreturn)
                               ~cond_noreturn:(Hashtbl.mem res.cond_noreturn)
                               loaded t)
                        then begin
                          Obs.incr c_rej_callconv;
                          reject "callconv" [];
                          false
                        end
                        else true
                      in
                      if is_tail then begin
                        Obs.incr c_tail_calls;
                        if Prov.enabled () then
                          Prov.emit ~ev:"alg1.tail_call" ~addr:t
                            [ ("site", Prov.I site); ("entry", Prov.I entry) ];
                        tail_calls := (site, t) :: !tail_calls
                      end
                      else if
                        Loaded.fde_starting_at loaded t
                        && jump_only_refs ~entry t
                        && (not (Hashtbl.mem removed t))
                        && t <> entry
                      then begin
                        Obs.incr c_merges;
                        if Prov.enabled () then
                          Prov.emit ~ev:"alg1.merge" ~addr:t
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
