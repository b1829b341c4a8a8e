(** Function-pointer detection and validation (§IV-E).

    Every candidate pointer is validated by speculative conservative
    disassembly checking the paper's four error classes:

    (i)   invalid opcodes;
    (ii)  running into the middle of previously disassembled instructions;
    (iii) control transfers into the middle of previously detected
          functions;
    (iv)  calling-convention violations (non-argument register read before
          initialization).

    Survivors become new function starts; the pointer collection is then
    refreshed from the enlarged disassembly and the process repeats.

    The iteration is incremental: each accepted pointer grows the
    committed disassembly in place via {!Fetch_analysis.Recursive.extend}
    instead of re-running every seed, the ref table folds exactly the
    delta it returns, and the candidates still to judge are one ordered
    set that gains only the delta's new candidates and loses, for good,
    every candidate whose verdict cannot change while the committed
    state only grows.  Error (iii) reads the code bits the extension
    sets in the instruction table.  The grown ref table is returned with
    the result: it is the detection's census, which every later stage
    reads.  The test suite keeps a from-scratch reference model
    built on {!validate} (no pending set, every candidate re-validated
    every round) and holds [detect] equal to it. *)

open Fetch_x86
open Fetch_analysis
module Obs = Fetch_obs.Trace
module Prov = Fetch_obs.Provenance

let max_spec_insns = 200
let max_spec_blocks = 24

(* Stage instrumentation: every candidate validation ends in exactly one
   decision, accepted or one of the four §IV-E rejection classes — the
   law below.  A detected entry the scan meets is not a §IV-E validation
   subject: it counts under [known_entries_skipped], once per candidate,
   since it leaves the pending set when met. *)
let c_candidates = Obs.counter "xref.candidates_scanned"
let d_accepted = Prov.decision "xref.accepted" ~ev:"xref.accept" []
let c_rounds = Obs.counter "xref.rounds"

let rejection reason =
  Prov.decision ("xref.reject." ^ reason) ~ev:"xref.reject" [ ("reason", Prov.S reason) ]

let d_rej_opcode = rejection "invalid_opcode"
let d_rej_mid = rejection "mid_instruction"
let d_rej_into = rejection "into_function"
let d_rej_callconv = rejection "callconv"
let c_known = Obs.counter "xref.known_entries_skipped"
let d_budget = Prov.decision "xref.budget_exhausted" ~ev:"xref.budget_exhausted" []

let () =
  Fetch_obs.Law.declare ~total:"xref.candidates_scanned"
    [ "xref.accepted"; "xref.reject.*" ]

(* Per-binary distributions: how many rounds a binary needs and what each
   round costs, in microseconds: most rounds cost well under one
   millisecond. *)
let h_rounds = Obs.histogram "xref.rounds"
let h_round_cost_us = Obs.histogram "xref.round_cost_us"

module Iset = Set.Make (Int)

(* Instruction-boundary test against the committed disassembly.  The
   instruction table is a memoized boundary index: an address is
   mid-instruction iff its containing instruction does not start there. *)
let mid_instruction (res : Recursive.result) addr =
  match Fetch_util.Insn_index.find res.insn_spans addr with
  | None -> false
  | Some (lo, _) -> addr <> lo

(* The first byte of the instruction [\[addr, addr + len)] that a
   committed instruction at another alignment holds, or -1: such an
   instruction runs into the middle of committed code (error ii), and
   the two could not both be committed.  -1 as well when [addr] itself
   starts a committed instruction, which is then this one. *)
let overlap (res : Recursive.result) addr len =
  let mem = Fetch_util.Insn_index.mem res.insn_spans in
  let rec from b = if b >= addr + len then -1 else if mem b then b else from (b + 1) in
  if mem addr then -1 else from (addr + 1)

(* The ledger's [into] operand: the highest entry among the functions
   whose blocks hold [addr], so the attribution of shared code depends
   on the result alone, never on hash iteration order.  Folded only
   when the ledger is recording. *)
let into (res : Recursive.result) addr =
  if not (Prov.enabled ()) then []
  else
    let owner =
      Hashtbl.fold
        (fun _ (f : Recursive.func) acc ->
          if List.exists (fun (lo, hi) -> lo <= addr && addr < hi) f.blocks
          then max acc f.entry
          else acc)
        res.funcs min_int
    in
    [ ("into", Prov.I owner) ]

type reject =
  | Invalid_opcode
  | Mid_instruction
  | Transfer_into_function
  | Bad_call_conv

let rejected = function
  | Invalid_opcode -> d_rej_opcode
  | Mid_instruction -> d_rej_mid
  | Transfer_into_function -> d_rej_into
  | Bad_call_conv -> d_rej_callconv

type verdict =
  | Accept
  | Rejected of {
      reason : reject;
      fields : (string * Prov.value) list;
      permanent : bool;
    }

(** Validate [cand] as a function start against the committed results.
    A rejection carries its §IV-E evidence operands for the ledger —
    where the violation was observed ([at]), which function body a
    transfer lands in ([into]), or the call-convention violation site
    and register ([viol_at]/[viol_reg]) — plus whether it is [permanent]:
    the shallow rejections (outside text, candidate itself mid-instruction
    or inside a committed body) can never flip while the committed state
    only grows, whereas speculative-walk and calling-convention verdicts
    can (a newly detected function can stop the walk earlier).
    [cand] must not be a detected entry: those are not §IV-E validation
    subjects. *)
let validate loaded (res : Recursive.result) cand : verdict =
  if not (Loaded.in_text loaded cand) then
    Rejected
      {
        reason = Invalid_opcode;
        fields = [ ("why", Prov.S "outside_text") ];
        permanent = true;
      }
  else if mid_instruction res cand then
    Rejected { reason = Mid_instruction; fields = []; permanent = true }
  else if Fetch_util.Insn_index.in_code res.insn_spans cand then
    (* a pointer into the body of a previously detected function is a
       control transfer into its middle (error iii) — jump-table entries
       land here, for example.  Every committed block handed its
       instructions to the table, which marks each of their bytes as
       code. *)
    Rejected
      { reason = Transfer_into_function; fields = into res cand; permanent = true }
  else begin
    (* speculative conservative disassembly *)
    let visited = Hashtbl.create 16 in
    let exception Reject of reject * (string * Prov.value) list in
    let check_target t =
      if Hashtbl.mem res.funcs t then ()
      else begin
        if mid_instruction res t then
          raise (Reject (Mid_instruction, [ ("at", Prov.I t) ]));
        if Fetch_util.Insn_index.in_code res.insn_spans t then
          raise (Reject (Transfer_into_function, ("at", Prov.I t) :: into res t))
      end
    in
    let tbl = loaded.Loaded.table in
    let rec walk_block fuel addr frontier =
      if fuel <= 0 then frontier
      else if Hashtbl.mem res.funcs addr then frontier
      else
        let s = Insn_table.find tbl addr in
        if s < 0 then raise (Reject (Invalid_opcode, [ ("at", Prov.I addr) ]))
        else begin
          if mid_instruction res addr then
            raise (Reject (Mid_instruction, [ ("at", Prov.I addr) ]));
          let len = Insn_table.len tbl s in
          (match overlap res addr len with
          | -1 -> ()
          | at -> raise (Reject (Mid_instruction, [ ("at", Prov.I at) ])));
          match Insn_table.flow tbl s with
          | Semantics.Fall -> walk_block (fuel - 1) (addr + len) frontier
          | Semantics.Ret | Semantics.Halt -> frontier
          | Semantics.Jump (Semantics.Direct t) ->
              check_target t;
              if Loaded.in_text loaded t then t :: frontier else frontier
          | Semantics.Cond t ->
              check_target t;
              walk_block (fuel - 1) (addr + len)
                (if Loaded.in_text loaded t then t :: frontier
                 else frontier)
          | Semantics.Jump (Semantics.Indirect _) -> frontier
          | Semantics.Callf (Semantics.Direct t) ->
              check_target t;
              walk_block (fuel - 1) (addr + len) frontier
          | Semantics.Callf (Semantics.Indirect _) ->
              walk_block (fuel - 1) (addr + len) frontier
        end
    in
    try
      let rec bfs blocks frontier =
        match frontier with
        | [] -> ()
        | addr :: rest ->
            if blocks <= 0 then ()
            else if Hashtbl.mem visited addr then bfs blocks rest
            else begin
              Hashtbl.replace visited addr ();
              let extra = walk_block max_spec_insns addr [] in
              bfs (blocks - 1) (extra @ rest)
            end
      in
      bfs max_spec_blocks [ cand ];
      match Callconv.validate loaded res cand with
      | Ok () -> Accept
      | Error v ->
          Rejected
            {
              reason = Bad_call_conv;
              fields = Callconv.ledger_fields v;
              permanent = false;
            }
    with Reject (reason, fields) ->
      Rejected { reason; fields; permanent = false }
  end

(** Iterated detection (§IV-E): accept one legitimate pointer at a time and
    immediately refresh the disassembly and the pointer collection with it,
    so later candidates are judged against the updated function extents.
    Returns the result, its seeds (ascending, deduplicated) and the ref
    table grown with it.

    Each round runs under an ["xref.round"] span carrying the round
    index and (when one is found) the accepted pointer, inside a ledger
    scope adding [round] to every §IV-E event, and is observed into the
    [xref.round_cost_us] histogram; the per-binary round count goes to
    the [xref.rounds] histogram. *)
let detect ?(max_rounds = 64) ?on_commit loaded ~seeds =
  (* the initial seed disassembly is stage-2 work and reports under its
     own "recursive" span; the "xref" stage below times §IV-E pointer
     detection only, so its mean is the cost of the rounds, not of the
     base disassembly they extend *)
  let res = Recursive.run loaded ~seeds in
  Obs.span "xref" @@ fun () ->
  (* rounds only ever add functions and instructions (and never mutate
     committed records), so the ref table, built once from the seed
     disassembly, folds each round's delta in place *)
  let refs = Refs.collect loaded res in
  (* the candidates not yet settled, ascending: filled once from the
     census, then only with the targets each delta makes candidates.  A
     candidate settles, leaving the set for good, when the scan meets it
     as a detected entry, accepts it, or rejects it permanently: the
     committed state only grows, so none of these verdicts can change.
     Other rejections stay pending and are judged again next round. *)
  let pending = ref (Iset.of_list (Refs.pointer_candidates refs)) in
  let settle cand = pending := Iset.remove cand !pending in
  let accept_one () =
    let rec go cands =
      match cands () with
      | Seq.Nil -> None
      | Seq.Cons (cand, rest) ->
          if Hashtbl.mem res.Recursive.funcs cand then begin
            Obs.incr c_known;
            settle cand;
            go rest
          end
          else begin
            Obs.incr c_candidates;
            match validate loaded res cand with
            | Accept ->
                Prov.decide d_accepted ~addr:cand
                  (match Refs.refs_to refs cand with
                  | Refs.Data_pointer a :: _ ->
                      [ ("via", Prov.S "data"); ("site", Prov.I a) ]
                  | Refs.Code_constant a :: _ ->
                      [ ("via", Prov.S "code"); ("site", Prov.I a) ]
                  | Refs.Call_target a :: _ ->
                      [ ("via", Prov.S "call"); ("site", Prov.I a) ]
                  | Refs.Jump_target (a, e) :: _ ->
                      [
                        ("via", Prov.S "jump");
                        ("site", Prov.I a);
                        ("entry", Prov.I e);
                      ]
                  | [] -> []);
                settle cand;
                Some cand
            | Rejected { reason; fields; permanent } ->
                Prov.decide (rejected reason) ~addr:cand fields;
                if permanent then settle cand;
                go rest
          end
    in
    go (Iset.to_seq !pending)
  in
  let rounds = ref 0 in
  (* [seeds] gains each accepted pointer in front; it is sorted once, on
     the way out *)
  let rec loop budget seeds =
    if budget <= 0 then begin
      (* the budget ran out right after an acceptance, so candidates we
         never re-examined may still be acceptable: detection is being
         truncated, not finished.  Say so instead of stopping silently. *)
      let left =
        Iset.filter (fun c -> not (Hashtbl.mem res.Recursive.funcs c)) !pending
      in
      if not (Iset.is_empty left) then
        Prov.decide d_budget ~addr:(Iset.min_elt left)
          [ ("pending", Prov.I (Iset.cardinal left)); ("rounds", Prov.I !rounds) ];
      seeds
    end
    else begin
      Obs.incr c_rounds;
      incr rounds;
      let k = !rounds in
      let outcome =
        Prov.with_scope [ ("round", Prov.I k) ] @@ fun () ->
        let traced = Obs.enabled () in
        let args = if traced then [ ("round", string_of_int k) ] else [] in
        Obs.span ~args "xref.round" @@ fun () ->
        let t0 = if traced then Fetch_obs.Clock.now_ns () else 0L in
        let r = accept_one () in
        (match r with
        | None -> ()
        | Some cand ->
            if traced then Obs.set_arg "accepted" (Printf.sprintf "%#x" cand);
            let delta = Recursive.extend loaded res ~seeds:[ cand ] in
            pending :=
              List.fold_left
                (fun s c -> Iset.add c s)
                !pending
                (Refs.add_delta loaded refs delta);
            match on_commit with
            | Some f -> f ~cand res delta
            | None -> ());
        if traced then
          Obs.observe h_round_cost_us
            (Int64.to_int
               (Int64.div (Int64.sub (Fetch_obs.Clock.now_ns ()) t0) 1_000L));
        r
      in
      match outcome with
      | None -> seeds
      | Some cand -> loop (budget - 1) (cand :: seeds)
    end
  in
  let seeds = loop max_rounds seeds in
  if Obs.enabled () then Obs.observe h_rounds !rounds;
  (res, List.sort_uniq compare seeds, refs)
