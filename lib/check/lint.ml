(** Cross-layer consistency linter — rule semantics in the interface. *)

open Fetch_x86
module IM = Fetch_util.Interval_map
module Obs = Fetch_obs.Trace

type func = {
  entry : int;
  blocks : (int * int) list;
  jumps : (int * int) list;
}

type view = {
  insn_at : int -> (Insn.t * int) option;
  in_text : int -> bool;
  funcs : func list;
  insn_spans : unit IM.t;
  fdes : (int * int) list;
  complete_cfi : (int * int) list;
  oracle_height : int -> int option;
  entry_height : int -> int option;
  callconv_ok : int -> bool;
  call_returns : site:int -> target:int option -> bool;
  referenced_outside_jumps_of : entry:int -> int -> bool;
  resolve_indirect :
    site:int ->
    window:(int * int * Insn.t) list ->
    Insn.operand ->
    int list option;
}

let in_blocks f addr =
  List.exists (fun (lo, hi) -> addr >= lo && addr < hi) f.blocks

let is_block_start f addr = List.exists (fun (lo, _) -> lo = addr) f.blocks

(* ---- jump-mid-insn: a direct/cond jump target strictly inside a
   committed instruction.  The committed span table is the run's ground
   truth of instruction boundaries; a jump that lands between [lo] and the
   instruction's end contradicts the disassembly that produced it. *)
let rule_jump_mid_insn v emit =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun (site, target) ->
          if (not (Hashtbl.mem seen (site, target))) && v.in_text target then begin
            Hashtbl.replace seen (site, target) ();
            match IM.find v.insn_spans target with
            | Some (lo, _, ()) when lo <> target ->
                emit
                  {
                    Finding.rule = "jump-mid-insn";
                    severity = Finding.Error;
                    addr = target;
                    related = Some site;
                    message =
                      Printf.sprintf
                        "jump target lands inside the instruction at %#x" lo;
                  }
            | _ -> ()
          end)
        f.jumps)
    v.funcs

(* ---- func-overlap: two detected functions decode the same bytes.
   Re-walk each function's instruction boundaries through the shared
   range: agreeing boundaries are legitimate code sharing (Info),
   disagreeing ones mean the two decodes cannot both be right (Error). *)
let boundaries_in v ~from ~lo ~hi =
  let rec walk addr acc =
    if addr >= hi then List.rev acc
    else
      match v.insn_at addr with
      | Some (_, len) ->
          walk (addr + len) (if addr >= lo then addr :: acc else acc)
      | None -> List.rev acc
  in
  walk from []

let rule_func_overlap v emit =
  let rec pairs = function
    | [] -> ()
    | f :: rest ->
        List.iter
          (fun g ->
            (* one finding per pair: the first overlapping block range *)
            let found = ref false in
            List.iter
              (fun (flo, fhi) ->
                List.iter
                  (fun (glo, ghi) ->
                    if not !found then begin
                      let olo = max flo glo and ohi = min fhi ghi in
                      if olo < ohi then begin
                        found := true;
                        let bf = boundaries_in v ~from:flo ~lo:olo ~hi:ohi in
                        let bg = boundaries_in v ~from:glo ~lo:olo ~hi:ohi in
                        if bf = bg then
                          emit
                            {
                              Finding.rule = "func-overlap";
                              severity = Finding.Info;
                              addr = olo;
                              related = Some g.entry;
                              message =
                                Printf.sprintf
                                  "functions %#x and %#x share code (agreeing \
                                   instruction boundaries)"
                                  f.entry g.entry;
                            }
                        else
                          emit
                            {
                              Finding.rule = "func-overlap";
                              severity = Finding.Error;
                              addr = olo;
                              related = Some g.entry;
                              message =
                                Printf.sprintf
                                  "functions %#x and %#x decode overlapping \
                                   bytes with different instruction boundaries"
                                  f.entry g.entry;
                            }
                      end
                    end)
                  g.blocks)
              f.blocks)
          rest;
        pairs rest
  in
  pairs v.funcs

(* ---- jump-mid-func: a jump from one function into another's body at an
   address the target function never treats as a block start — the
   paper's error class (iii), a control transfer into the middle of a
   detected function. *)
let rule_jump_mid_func v emit =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun (site, target) ->
          List.iter
            (fun g ->
              if
                g.entry <> f.entry && target <> g.entry
                && in_blocks g target
                && (not (is_block_start g target))
                && (not (in_blocks f target))
                && not (Hashtbl.mem seen (site, target))
              then begin
                Hashtbl.replace seen (site, target) ();
                emit
                  {
                    Finding.rule = "jump-mid-func";
                    severity = Finding.Warning;
                    addr = site;
                    related = Some target;
                    message =
                      Printf.sprintf
                        "jump into the middle of detected function %#x" g.entry;
                  }
              end)
            v.funcs)
        f.jumps)
    v.funcs

(* ---- fde-unreached: the unwinder claims [lo, hi) is a function, the
   disassembly never decoded (all of) it.  Fully undecoded ranges are
   suspicious (a seed the pipeline dropped); partially decoded ranges are
   common and legitimate (landing pads, alignment tails) so only Info. *)
let rule_fde_unreached v emit =
  List.iter
    (fun (lo, hi) ->
      if hi > lo then begin
        let covered = ref 0 in
        let rec scan from =
          match IM.next_from v.insn_spans from with
          | Some (slo, shi, ()) when slo < hi ->
              let ilo = max slo lo and ihi = min shi hi in
              if ihi > ilo then covered := !covered + (ihi - ilo);
              scan shi
          | _ -> ()
        in
        (* [next_from] skips intervals beginning before [lo]; back up so a
           span straddling the range start still counts. *)
        (match IM.find v.insn_spans lo with
        | Some (_, shi, ()) ->
            covered := min shi hi - lo;
            scan shi
        | None -> scan lo);
        if !covered = 0 then
          emit
            {
              Finding.rule = "fde-unreached";
              severity = Finding.Warning;
              addr = lo;
              related = None;
              message =
                Printf.sprintf
                  "FDE covers [%#x, %#x) but no instruction there was decoded"
                  lo hi;
            }
        else if !covered < hi - lo then
          emit
            {
              Finding.rule = "fde-unreached";
              severity = Finding.Info;
              addr = lo;
              related = None;
              message =
                Printf.sprintf
                  "FDE covers [%#x, %#x) but only %d of %d bytes were decoded"
                  lo hi !covered (hi - lo);
            }
      end)
    v.fdes

(* ---- start-callconv: a kept function start that fails the §IV-E
   register-initialization check.  The pipeline only enforces the check
   on some candidate classes, so a kept start can still fail it — worth a
   look, not necessarily wrong (cold parts read spilled state). *)
let rule_start_callconv v emit =
  List.iter
    (fun f ->
      if not (v.callconv_ok f.entry) then
        emit
          {
            Finding.rule = "start-callconv";
            severity = Finding.Warning;
            addr = f.entry;
            related = None;
            message =
              "detected function start fails the calling-convention check";
          })
    v.funcs

(* ---- height-mismatch: a sound join-based stack-height dataflow vs the
   CFI oracle, inside rsp-complete CFI coverage only.  [Known]/[Top] is a
   flat lattice: disagreeing joins widen to Top (no claim) rather than
   pick a side, so any surviving Known height the oracle contradicts is a
   genuine cross-layer disagreement. *)
module Height = struct
  type state = Known of int | Top
  type fatal = unit

  let equal = ( = )

  let join a b =
    match (a, b) with Known x, Known y when x = y -> a | _ -> Top

  let widen ~old:_ _ = Top

  let transfer ~addr:_ ~len:_ insn st =
    match Semantics.flow insn with
    | Semantics.Fall | Semantics.Callf _ -> (
        match (st, Semantics.sp_delta insn) with
        | Known h, Some d -> Dataflow.Step (Known (h - d))
        | _, None | Top, _ -> Dataflow.Step Top)
    | _ -> Dataflow.Step st
end

module Height_solver = Dataflow.Make (Height)

let rule_height_mismatch v emit =
  let in_complete addr =
    List.exists (fun (lo, hi) -> addr >= lo && addr < hi) v.complete_cfi
  in
  List.iter
    (fun f ->
      (* only solve where the oracle can answer at all *)
      if in_complete f.entry then begin
      let prog = { Dataflow.insn_at = v.insn_at; in_text = v.in_text } in
      (* walk only the function's own blocks: the oracle's heights are
         per-FDE, so following a tail call would compare the caller's
         height against the callee's table *)
      let policy =
        {
          Height_solver.default_policy with
          follow_direct = (fun ~site:_ ~target -> in_blocks f target);
          resolve_indirect =
            (fun ~site ~window op ->
              match v.resolve_indirect ~site ~window op with
              | Some ts -> Some (List.filter (in_blocks f) ts)
              | None -> None);
          call_falls_through =
            (fun ~site ~target _ -> v.call_returns ~site ~target);
          stop_outside_text = true;
          (* fallthrough must not leak out either: a trailing call that
             never returns would otherwise walk into the next function
             and compare this function's height against its neighbour's
             CFI table *)
          stop_walk = (fun addr -> not (in_blocks f addr));
        }
      in
      let sol =
        Height_solver.solve prog policy ~merge:Dataflow.Join_fixpoint
          ~entry:f.entry ~init:(Height.Known 0) ()
      in
      let worst = ref None in
      Hashtbl.iter
        (fun addr st ->
          match (st, v.oracle_height addr) with
          | Height.Known h, Some oh when h <> oh -> (
              match !worst with
              | Some (a, _, _) when a <= addr -> ()
              | _ -> worst := Some (addr, h, oh))
          | _ -> ())
        sol.Height_solver.states;
      match !worst with
      | Some (addr, h, oh) ->
          emit
            {
              Finding.rule = "height-mismatch";
              severity = Finding.Warning;
              addr;
              related = Some f.entry;
              message =
                Printf.sprintf
                  "static stack height %d disagrees with the CFI oracle (%d)" h
                  oh;
            }
      | None -> ()
      end)
    v.funcs

(* ---- split-fn-fde: an out-jump of [f] lands on an FDE start that is
   reached by nothing but [f]'s own jumps, and the FDE's entry height
   equals the nonzero CFI height at the jump site.  The parent's frame is
   still live and never changed hands, so the FDE describes a split-off
   fragment of [f], not a function.  The nonzero test excludes genuine
   tail calls (frame gone, both heights 0); rbp-framed fragments have no
   rsp-based height and stay silent, as does any fragment with an
   outside reference. *)
let rule_split_fn_fde v emit =
  let fde_start = Hashtbl.create 64 in
  List.iter (fun (lo, _) -> Hashtbl.replace fde_start lo ()) v.fdes;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun (site, target) ->
          if
            target <> f.entry
            && Hashtbl.mem fde_start target
            && (not (in_blocks f target))
            && not (Hashtbl.mem seen (target, f.entry, site))
          then
            match v.oracle_height site with
            | Some h
              when h <> 0
                   && v.entry_height target = Some h
                   && not (v.referenced_outside_jumps_of ~entry:f.entry target)
              ->
                Hashtbl.replace seen (target, f.entry, site) ();
                emit
                  {
                    Finding.rule = "split-fn-fde";
                    severity = Finding.Warning;
                    addr = target;
                    related = Some site;
                    message =
                      Printf.sprintf
                        "FDE at %#x looks like a split-off fragment of %#x \
                         (only reached by its jumps, matching CFI height %d)"
                        target f.entry h;
                  }
            | _ -> ())
        f.jumps)
    v.funcs

let rules =
  [
    ("jump-mid-insn", rule_jump_mid_insn);
    ("func-overlap", rule_func_overlap);
    ("jump-mid-func", rule_jump_mid_func);
    ("fde-unreached", rule_fde_unreached);
    ("start-callconv", rule_start_callconv);
    ("height-mismatch", rule_height_mismatch);
    ("split-fn-fde", rule_split_fn_fde);
  ]

let counters =
  List.map (fun (name, _) -> (name, Obs.counter ("lint.findings." ^ name))) rules

let run v =
  Obs.span "lint" (fun () ->
      let acc = ref [] in
      List.iter
        (fun (name, rule) ->
          Obs.span ("lint." ^ name) (fun () ->
              rule v (fun f ->
                  Obs.incr (List.assoc name counters);
                  acc := f :: !acc)))
        rules;
      List.sort Finding.compare !acc)
