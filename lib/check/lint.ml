(** Cross-layer consistency linter — rule semantics in the interface. *)

open Fetch_x86
module Insn_index = Fetch_util.Insn_index
module Obs = Fetch_obs.Trace
module Prov = Fetch_obs.Provenance

type func = {
  entry : int;
  blocks : (int * int) list;
  jumps : (int * int) list;
}

type view = {
  block_table : Block_table.t;
  funcs : func list;
  insn_spans : Insn_index.t;
  fdes : (int * int) list;
  complete_at : int -> bool;
  oracle_height : int -> int option;
  entry_height : int -> int option;
  callconv_ok : int -> bool;
  call_returns : int -> bool;
  referenced_outside_jumps_of : entry:int -> int -> bool;
  resolve_indirect :
    window:(int * int * Insn.t) list -> Insn.operand -> int list option;
}

(* ---- jump-mid-insn: a direct/cond jump target strictly inside a
   committed instruction.  The committed span table is the run's ground
   truth of instruction boundaries; a jump that lands between [lo] and the
   instruction's end contradicts the disassembly that produced it. *)
let rule_jump_mid_insn v emit =
  let tbl = Block_table.table v.block_table in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun (site, target) ->
          if Insn_table.in_text tbl target then
            match Insn_index.find v.insn_spans target with
            | Some (lo, _)
              when lo <> target && not (Hashtbl.mem seen (site, target)) ->
                Hashtbl.replace seen (site, target) ();
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
            | _ -> ())
        f.jumps)
    v.funcs

(* ---- the block index, built once per run for [func-overlap] and
   [jump-mid-func].  Blocks are numbered function by function in [funcs]
   order, each function's in list order, so of two blocks of the same
   function the lower number comes first in its [blocks].  [lo], [hi]
   and [fn] (the owner's position in [owners], the view's [funcs]) are
   indexed by block number; [order] lists the block numbers sorted by
   [lo], and [run_max.(i)] is the largest [hi] of [order.(0..i)], so a
   backward walk for the blocks containing [t] stops at the first
   position whose running maximum is [<= t].  Empty blocks are kept:
   they contain nothing, but they still count as block starts. *)
type index = {
  owners : func array;
  lo : int array;
  hi : int array;
  fn : int array;
  order : int array;
  run_max : int array;
}

let index_of v =
  let owners = Array.of_list v.funcs in
  let n = Array.fold_left (fun n f -> n + List.length f.blocks) 0 owners in
  let lo = Array.make n 0 and hi = Array.make n 0 and fn = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun i f ->
      List.iter
        (fun (l, h) ->
          lo.(!k) <- l;
          hi.(!k) <- h;
          fn.(!k) <- i;
          incr k)
        f.blocks)
    owners;
  let order = Array.init n Fun.id in
  (* by (lo, block number): packed into one int each when they fit *)
  let base = Array.fold_left min max_int lo in
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  if Array.for_all (fun l -> l - base <= max_int asr !bits) lo then begin
    let key = Array.mapi (fun b l -> ((l - base) lsl !bits) lor b) lo in
    Array.stable_sort Int.compare key;
    Array.iteri (fun i k -> order.(i) <- k land ((1 lsl !bits) - 1)) key
  end
  else Array.stable_sort (fun a b -> Int.compare lo.(a) lo.(b)) order;
  let run_max = Array.map (fun b -> hi.(b)) order in
  for i = 1 to n - 1 do
    run_max.(i) <- max run_max.(i) run_max.(i - 1)
  done;
  { owners; lo; hi; fn; order; run_max }

(* first position in [order], within [a, b), whose block has [lo >= t] *)
let rec lower_bound ix t a b =
  if a >= b then a
  else
    let m = (a + b) / 2 in
    if ix.lo.(ix.order.(m)) < t then lower_bound ix t (m + 1) b
    else lower_bound ix t a m

(* ---- func-overlap: two detected functions decode the same bytes.
   Re-walk each function's instruction boundaries through the shared
   range: agreeing boundaries are legitimate code sharing (Info),
   disagreeing ones mean the two decodes cannot both be right (Error). *)
let boundaries_in v ~from ~lo ~hi =
  let tbl = Block_table.table v.block_table in
  let rec walk addr acc =
    if addr >= hi then List.rev acc
    else
      let s = Insn_table.find tbl addr in
      if s < 0 then List.rev acc
      else
        walk (addr + Insn_table.len tbl s)
          (if addr >= lo then addr :: acc else acc)
  in
  walk from []

(* Drop the open blocks that end by the time [c] starts; each one left
   overlaps [c]. *)
let rec sweep_open ix note c = function
  | [] -> []
  | a :: rest when ix.hi.(a) > ix.lo.(c) ->
      if ix.fn.(a) <> ix.fn.(c) then note a c;
      a :: sweep_open ix note c rest
  | _ :: rest -> sweep_open ix note c rest

(* One finding per function pair [f] before [g], from the pair's first
   overlapping blocks in [f.blocks] x [g.blocks] order.  A sweep over the
   blocks in [lo] order keeps those still open at the current [lo]: each
   one overlaps the current block, and a closed one is dropped for good,
   so the sweep costs O(B + overlapping pairs) after the sort. *)
let rule_func_overlap v ix emit =
  let n = Array.length ix.lo and nf = Array.length ix.owners in
  (* function pair -> its first overlapping block pair [a * n + c], [a]
     in [f] and [c] in [g]; block numbers make that the smallest *)
  let first = Hashtbl.create 8 in
  let note a c =
    let a = min a c and c = max a c in
    let pair = (ix.fn.(a) * nf) + ix.fn.(c) and ac = (a * n) + c in
    match Hashtbl.find_opt first pair with
    | Some earlier when earlier <= ac -> ()
    | _ -> Hashtbl.replace first pair ac
  in
  let open_ = ref [] in
  for i = 0 to n - 1 do
    let c = ix.order.(i) in
    if ix.hi.(c) > ix.lo.(c) then open_ := c :: sweep_open ix note c !open_
  done;
  Hashtbl.iter
    (fun _ ac ->
      let a = ac / n and c = ac mod n in
      let f = ix.owners.(ix.fn.(a)) and g = ix.owners.(ix.fn.(c)) in
      let flo = ix.lo.(a) and glo = ix.lo.(c) in
      let olo = max flo glo and ohi = min ix.hi.(a) ix.hi.(c) in
      let agree =
        boundaries_in v ~from:flo ~lo:olo ~hi:ohi
        = boundaries_in v ~from:glo ~lo:olo ~hi:ohi
      in
      emit
        {
          Finding.rule = "func-overlap";
          severity = (if agree then Finding.Info else Finding.Error);
          addr = olo;
          related = Some g.entry;
          message =
            (if agree then
               Printf.sprintf
                 "functions %#x and %#x share code (agreeing instruction \
                  boundaries)"
                 f.entry g.entry
             else
               Printf.sprintf
                 "functions %#x and %#x decode overlapping bytes with \
                  different instruction boundaries"
                 f.entry g.entry);
        })
    first

(* ---- jump-mid-func: a jump from one function into another's body at an
   address the target function never treats as a block start — the
   paper's error class (iii), a control transfer into the middle of a
   detected function. *)

(* [order] positions from [i] on whose block starts at [t] end here *)
let rec past_starts ix t i =
  if i < Array.length ix.order && ix.lo.(ix.order.(i)) = t then
    past_starts ix t (i + 1)
  else i

(* does function [g] own a block at [order] positions [i, last)? *)
let rec owns_in ix g i last =
  i < last && (ix.fn.(ix.order.(i)) = g || owns_in ix g (i + 1) last)

(* The first function in [owners] order, other than the jumping function
   [fi] (entry [entry]), that [t] lands in mid-body: inside one of its
   blocks, at none of its block starts ([order] positions [first, last)),
   not at its entry.  [max_int] when there is none or [t] is inside a
   block of [fi] itself.  Walks down from position [i] until the running
   maximum says no earlier block reaches [t]. *)
let rec mid_owner ix ~fi ~entry t ~first ~last i best =
  if i < 0 || ix.run_max.(i) <= t then best
  else
    let b = ix.order.(i) in
    let g = ix.fn.(b) in
    if ix.hi.(b) <= t then mid_owner ix ~fi ~entry t ~first ~last (i - 1) best
    else if g = fi then max_int
    else
      let e = ix.owners.(g).entry in
      mid_owner ix ~fi ~entry t ~first ~last (i - 1)
        (if g < best && e <> entry && e <> t && not (owns_in ix g first last)
         then g
         else best)

let mid_func_owner ix ~fi ~entry t =
  let first = lower_bound ix t 0 (Array.length ix.order) in
  let last = past_starts ix t first in
  let g = mid_owner ix ~fi ~entry t ~first ~last (last - 1) max_int in
  if g = max_int then None else Some ix.owners.(g)

let rule_jump_mid_func _v ix emit =
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun fi f ->
      List.iter
        (fun (site, target) ->
          match mid_func_owner ix ~fi ~entry:f.entry target with
          | Some g when not (Hashtbl.mem seen (site, target)) ->
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
          | _ -> ())
        f.jumps)
    ix.owners

(* ---- fde-unreached: the unwinder claims [lo, hi) is a function, the
   disassembly never decoded (all of) it.  Fully undecoded ranges are
   suspicious (a seed the pipeline dropped); partially decoded ranges are
   common and legitimate (landing pads, alignment tails) so only Info. *)
let rule_fde_unreached v emit =
  List.iter
    (fun (lo, hi) ->
      if hi > lo then begin
        let covered = Insn_index.covered v.insn_spans ~lo ~hi in
        if covered = 0 then
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
        else if covered < hi - lo then
          emit
            {
              Finding.rule = "fde-unreached";
              severity = Finding.Info;
              addr = lo;
              related = None;
              message =
                Printf.sprintf
                  "FDE covers [%#x, %#x) but only %d of %d bytes were decoded"
                  lo hi covered (hi - lo);
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
   flat lattice: disagreeing joins go to Top (no claim) rather than
   pick a side, so any surviving Known height the oracle contradicts is a
   genuine cross-layer disagreement. *)
module Height = struct
  type state = Known of int | Top
  type fatal = unit

  let equal = ( = )

  let join a b =
    match (a, b) with Known x, Known y when x = y -> a | _ -> Top

  let transfer tbl ~addr:_ s st =
    match Insn_table.flow tbl s with
    | Semantics.Fall | Semantics.Callf _ -> (
        match (st, Semantics.sp_delta (Insn_table.insn tbl s)) with
        | Known h, Some d -> Dataflow.Step (Known (h - d))
        | _, None | Top, _ -> Dataflow.Step Top)
    | _ -> Dataflow.Step st

  let body bt k = function
    | Known h when not (Block_table.sp_unknown bt k) ->
        Some (Known (h - Block_table.sp_delta bt k))
    | Known _ | Top -> Some Top
end

module Height_solver = Dataflow.Make (Height)

(* is [\[lo, hi)] inside one of the ranges? *)
let rec covers ranges lo hi =
  match ranges with
  | [] -> false
  | (l, h) :: rest -> (lo >= l && hi <= h) || covers rest lo hi

(* walk only the function's own blocks: the oracle's heights are
   per-FDE, so following a tail call — or a trailing call that never
   returns falling into the next function — would compare this
   function's height against its neighbour's CFI table *)
let height_policy v f =
  {
    Height_solver.default_policy with
    resolve_indirect = v.resolve_indirect;
    call_returns = (fun t _ -> v.call_returns t);
    may_walk =
      (* the walk starts at the entry, in the run the list ends with *)
      (let runs = List.rev f.blocks in
       fun lo hi -> covers runs lo hi);
  }

(* Within [\[a, hi)], from height [h] at [a]: the first address where
   the oracle disagrees, before [stop], as [(addr, h, oracle)].  Every
   instruction but a block's last falls through, so the height follows
   each one's {!Semantics.sp_delta}; an unknown one makes it [Top]. *)
let rec first_mismatch v tbl a hi h stop =
  if a >= stop then None
  else
    match v.oracle_height a with
    | Some oh when oh <> h -> Some (a, h, oh)
    | _ -> (
        let s = Insn_table.find tbl a in
        let a' = a + Insn_table.len tbl s in
        if a' >= hi then None
        else
          match Semantics.sp_delta (Insn_table.insn tbl s) with
          | Some d -> first_mismatch v tbl a' hi (h - d) stop
          | None -> None)

(* The solve records one state per block entry; each entry is expanded
   alongside the oracle in one pass, up to the first mismatch found so
   far.  An entry at [Top] stays there. *)
let rule_height_mismatch v emit =
  let tbl = Block_table.table v.block_table in
  List.iter
    (fun f ->
      (* only solve where the oracle can answer at all *)
      if v.complete_at f.entry then begin
        let sol =
          Height_solver.solve v.block_table (height_policy v f)
            ~merge:Dataflow.Join_fixpoint ~entry:f.entry ~init:(Height.Known 0) ()
        in
        let worst =
          List.fold_left
            (fun worst (lo, hi, st) ->
              match st with
              | Height.Top -> worst
              | Height.Known h -> (
                  let stop = match worst with Some (w, _, _) -> w | None -> max_int in
                  match first_mismatch v tbl lo hi h stop with
                  | Some _ as m -> m
                  | None -> worst))
            None sol.Height_solver.entries
        in
        match worst with
        | Some (addr, h, oh) ->
            emit
              {
                Finding.rule = "height-mismatch";
                severity = Finding.Warning;
                addr;
                related = Some f.entry;
                message =
                  Printf.sprintf
                    "static stack height %d disagrees with the CFI oracle (%d)"
                    h oh;
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
            && (not (covers f.blocks target (target + 1)))
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
    ("jump-mid-insn", fun v _ -> rule_jump_mid_insn v);
    ("func-overlap", rule_func_overlap);
    ("jump-mid-func", rule_jump_mid_func);
    ("fde-unreached", fun v _ -> rule_fde_unreached v);
    ("start-callconv", fun v _ -> rule_start_callconv v);
    ("height-mismatch", fun v _ -> rule_height_mismatch v);
    ("split-fn-fde", fun v _ -> rule_split_fn_fde v);
  ]

let decisions =
  List.map
    (fun (name, _) ->
      ( name,
        Prov.decision ("lint.findings." ^ name) ~ev:"lint.finding"
          [ ("rule", Prov.S name) ] ))
    rules

let run v =
  Obs.span "lint" (fun () ->
      let acc = ref [] in
      let ix = index_of v in
      List.iter
        (fun (name, rule) ->
          Obs.span ("lint." ^ name) (fun () ->
              rule v ix (fun f -> acc := f :: !acc)))
        rules;
      let findings = List.sort Finding.compare !acc in
      List.iter
        (fun (f : Finding.t) ->
          Prov.decide (List.assoc f.rule decisions) ~addr:f.addr
            (("severity", Prov.S (Finding.severity_label f.severity))
            :: List.map (fun r -> ("related", Prov.I r)) (Option.to_list f.related)))
        findings;
      findings)
