(** The heuristic passes existing tools layer on top of recursive
    disassembly (§II-B, §IV-C/D): control-flow repair, thunk splitting,
    function merging, alignment scanning, prologue matching, heuristic
    tail-call detection and linear gap scanning.

    Each pass takes the committed engine result and returns starts to add
    or remove; the tool models in this library compose them per tool. *)

open Fetch_x86
open Fetch_analysis

(* Claimed-byte map from an engine result (instruction spans). *)
let claimed (res : Recursive.result) = res.insn_spans

let gaps loaded (res : Recursive.result) =
  Linear_sweep.gaps loaded ~covered:(claimed res)

(* Reference census restricted to control flow (calls/jumps) — what the
   "reached by other control flows" tests of Ghidra/angr can see. *)
let flow_refs (res : Recursive.result) =
  let t = Hashtbl.create 256 in
  let add target = Hashtbl.replace t target () in
  Hashtbl.iter
    (fun _ (f : Recursive.func) ->
      List.iter (fun (_, tg) -> add tg) f.calls;
      List.iter (fun (_, tg) -> add tg) f.all_jump_sites;
      List.iter (fun (_, tgs) -> List.iter add tgs) f.table_targets)
    res.funcs;
  t

(* Address of the function part that owns the last code byte before
   [addr], skipping backwards over padding. *)
let preceding_function loaded (res : Recursive.result) addr =
  let rec back a steps =
    if steps > 512 || a <= 0 then None
    else
      match Fetch_util.Insn_index.find res.insn_spans (a - 1) with
      | Some (lo, _) -> (
          (* find the owning function *)
          let owner = ref None in
          Hashtbl.iter
            (fun e (f : Recursive.func) ->
              if List.exists (fun (blo, bhi) -> lo >= blo && lo < bhi) f.blocks
              then owner := Some e)
            res.funcs;
          match !owner with Some e -> Some e | None -> None)
      | None -> back (a - 1) (steps + 1)
  in
  ignore loaded;
  back addr 0

(** Ghidra's control-flow repairing: drop a detected start that directly
    follows (byte-adjacent, no padding) a non-returning function when no
    control flow reaches it.  With the over-approximate noreturn knowledge
    real tools have, this deletes true starts (§IV-C); size-optimized
    binaries, which drop function alignment, are hit hardest. *)
let control_flow_repair loaded (res : Recursive.result) ~noreturn starts =
  let refs = flow_refs res in
  List.filter
    (fun s ->
      Hashtbl.mem refs s
      || (not (Fetch_util.Insn_index.mem res.insn_spans (s - 1)))
      ||
      match preceding_function loaded res s with
      | Some prev -> not (noreturn prev)
      | None -> true)
    starts

(** Ghidra's thunk heuristic: a function starting with a jump is a thunk;
    its target becomes a function start (§IV-C) — wrong for rotated-loop
    entries whose first instruction jumps into their own body. *)
let thunk_targets loaded (res : Recursive.result) =
  Hashtbl.fold
    (fun entry (_ : Recursive.func) acc ->
      match Loaded.insn_at loaded entry with
      | Some ((Insn.Jmp (Insn.To_addr t) | Insn.Jmp_short (Insn.To_addr t)), _)
        ->
          t :: acc
      | _ -> acc)
    res.funcs []

(** angr's function merging: adjacent functions connected by a jump that is
    the only outgoing transfer of the first and the only incoming one of
    the second get merged — deleting true starts (§IV-C). *)
let angr_merge_removals (res : Recursive.result) =
  (* count incoming control transfers per target *)
  let incoming = Hashtbl.create 256 in
  let bump target =
    Hashtbl.replace incoming target
      (1 + Option.value ~default:0 (Hashtbl.find_opt incoming target))
  in
  Hashtbl.iter
    (fun _ (f : Recursive.func) ->
      List.iter (fun (_, t) -> bump t) f.calls;
      List.iter (fun (_, t) -> bump t) f.out_jumps;
      List.iter (fun (_, tgs) -> List.iter bump tgs) f.table_targets)
    res.funcs;
  let next_start entry =
    Hashtbl.fold
      (fun e _ acc ->
        if e > entry then match acc with Some a when a < e -> acc | _ -> Some e
        else acc)
      res.funcs None
  in
  Hashtbl.fold
    (fun entry (f : Recursive.func) acc ->
      match (f.out_jumps, f.calls) with
      | [ (_, t) ], []
        when (not f.unresolved_indirect_jump)
             && Hashtbl.find_opt incoming t = Some 1
             && next_start entry = Some t ->
          t :: acc
      | _ -> acc)
    res.funcs []

(** angr's alignment heuristic: in a padding-led gap, the first non-padding
    instruction becomes a function start (§IV-C) — right for unreferenced
    assembly functions, wrong for data-in-text junk. *)
let alignment_starts loaded (res : Recursive.result) =
  gaps loaded res
  |> List.filter_map (fun (lo, hi) ->
         let pad = Linear_sweep.leading_padding loaded ~lo ~hi in
         if pad > 0 && lo + pad < hi then Some (lo + pad) else None)

(** Prologue matching over gaps ("Fsig"). *)
let prologue_starts loaded (res : Recursive.result) ~strictness ~every_byte =
  Prologue.scan loaded ~strictness ~every_byte (gaps loaded res)

(** Heuristic tail-call splitting, angr-flavoured: a jump target inside the
    same function that is 16-byte aligned looks like a function entry and
    is split off.  Finds functions reachable only via tail calls, at the
    cost of splitting at aligned intra-function labels (§IV-D). *)
let tcall_starts_angr (res : Recursive.result) =
  Hashtbl.fold
    (fun entry (f : Recursive.func) acc ->
      List.fold_left
        (fun acc (_, t) ->
          if
            t <> entry && t mod 16 = 0
            && List.exists (fun (lo, hi) -> t >= lo && t < hi) f.blocks
            && not (Hashtbl.mem res.funcs t)
          then t :: acc
          else acc)
        acc f.all_jump_sites)
    res.funcs []

(** Heuristic tail-call splitting, Ghidra-flavoured: any sufficiently far
    jump (forward beyond a threshold, or backward before the entry) is
    taken as a tail call — far noisier (§IV-D). *)
let tcall_starts_ghidra (res : Recursive.result) ~threshold =
  Hashtbl.fold
    (fun entry (f : Recursive.func) acc ->
      List.fold_left
        (fun acc (site, t) ->
          if
            t <> entry
            && (t > site + threshold || t < entry)
            && not (Hashtbl.mem res.funcs t)
          then t :: acc
          else acc)
        acc f.all_jump_sites)
    res.funcs []

(** angr's linear gap scan: after skipping padding, every maximal decodable
    run in a gap starts a new function (§IV-D) — the heuristic that
    "eliminated all the binaries that have full accuracy". *)
let scan_starts loaded (res : Recursive.result) =
  gaps loaded res
  |> List.concat_map (fun (lo, hi) ->
         let pad = Linear_sweep.leading_padding loaded ~lo ~hi in
         let rec runs pos acc =
           if pos >= hi then List.rev acc
           else
             match Loaded.insn_at loaded pos with
             | Some (_, len) when pos + len <= hi ->
                 (* a decodable run begins here; consume it *)
                 let rec consume p =
                   if p >= hi then p
                   else
                     match Loaded.insn_at loaded p with
                     | Some (_, l) when p + l <= hi -> consume (p + l)
                     | _ -> p
                 in
                 let stop = consume pos in
                 runs (stop + 1) (pos :: acc)
             | _ -> runs (pos + 1) acc
         in
         runs (lo + pad) [])
