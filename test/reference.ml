(* Reference models for the incremental engines, shared by the tier-1
   suite and test/fuzz_noreturn.ml.  Each recomputes from scratch, with
   no cache and no worklist, so agreeing with it holds the incremental
   code to the plain definition. *)

open Fetch_analysis
module Insn_index = Fetch_util.Insn_index

(* The from-scratch converged noreturn loop: walk every function
   reachable from [seeds] breadth-first (a callee is registered when the
   block that calls it ends, so a walk sees as starts the entries
   registered before it and its own callees), learn every noreturn and
   [error]-style fact those walks imply, and start over until a pass
   learns nothing.  Facts are never dropped; the last pass's functions
   and instructions (first writer first) are the result. *)
let recursive loaded ~seeds : Recursive.result =
  let noreturn = Hashtbl.create 16 and cond_noreturn = Hashtbl.create 4 in
  let rec pass () =
    let funcs = Hashtbl.create 64 and registered = Hashtbl.create 64 in
    let queue = Queue.create () and order = ref [] in
    let is_start a = Hashtbl.mem registered a in
    let register t =
      if (not (is_start t)) && Loaded.in_text loaded t then begin
        Hashtbl.replace registered t ();
        Queue.add t queue
      end
    in
    List.iter register seeds;
    while not (Queue.is_empty queue) do
      let e = Queue.pop queue in
      let f =
        Recursive.walk loaded ~noreturn ~cond_noreturn ~is_start
          ~on_call:register e
      in
      Hashtbl.replace funcs e f;
      order := f :: !order
    done;
    (* can each function return?  Least fixpoint over tail jumps *)
    let returns = Hashtbl.create 64 in
    Hashtbl.iter
      (fun e (f : Recursive.func) ->
        if f.has_ret || f.unresolved_indirect_jump || f.decode_error then
          Hashtbl.replace returns e ())
      funcs;
    let changed = ref true in
    while !changed do
      changed := false;
      Hashtbl.iter
        (fun e (f : Recursive.func) ->
          if
            (not (Hashtbl.mem returns e))
            && List.exists
                 (fun (_, _, t) ->
                   (not (Hashtbl.mem funcs t)) || Hashtbl.mem returns t)
                 f.out_jumps
          then begin
            Hashtbl.replace returns e ();
            changed := true
          end)
        funcs
    done;
    let learned = ref false in
    Hashtbl.iter
      (fun e _ ->
        let cond = Recursive.detect_cond_noreturn loaded e in
        let fact tbl =
          if not (Hashtbl.mem tbl e) then begin
            Hashtbl.replace tbl e ();
            learned := true
          end
        in
        if not (Hashtbl.mem returns e) then (if not cond then fact noreturn)
        else if cond then fact cond_noreturn)
      funcs;
    if !learned then pass ()
    else begin
      (* each block is one run of instructions decoded back to back *)
      let insn_spans = Insn_index.create (Loaded.text_ranges loaded) in
      let rec add a hi =
        if a < hi then
          match Loaded.insn_at loaded a with
          | Some (_, len) ->
              ignore (Insn_index.add insn_spans ~lo:a ~hi:(a + len));
              add (a + len) hi
          | None -> ()
      in
      List.iter
        (fun (f : Recursive.func) ->
          List.iter (fun (lo, hi) -> add lo hi) (List.rev f.blocks))
        (List.rev !order);
      { Recursive.funcs; noreturn; cond_noreturn; insn_spans }
    end
  in
  pass ()

(* A random corpus binary with a share of its FDE seeds removed (removed
   seeds turn their functions into §IV-E's problem, forcing deep
   extension chains): the loaded image and the seeds left. *)
let draw ~seed compiler ~n_funcs ~pointer ~code_ptr ~drop =
  let open Fetch_synth in
  let spec =
    {
      Gen.default_spec with
      n_funcs;
      n_asm_pointer = pointer;
      n_asm_code_ptr = code_ptr;
      n_asm_called = 1;
      n_asm_unreachable = 1;
    }
  in
  let b = Link.build_random ~profile:(Profile.make compiler Profile.O2) ~seed spec in
  let loaded = Loaded.load b.image in
  (loaded, List.filteri (fun i _ -> i mod 4 >= drop) loaded.Loaded.fde_starts)

let keys tbl = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) tbl [])

(* Everything a caller of the engine reads: starts, spans and both fact
   tables. *)
let signature (res : Recursive.result) =
  ( Recursive.starts res,
    Insn_index.to_list res.insn_spans,
    keys res.noreturn,
    keys res.cond_noreturn )

(* Reference model of §IV-E detection, built on [Xref.validate]: every
   round re-runs disassembly (the converged loop above) and ref
   collection from scratch, builds a fresh extent set and re-validates
   every candidate that is not a detected entry.  It retires no
   candidate, so agreeing with it also checks that [Xref.detect] retires
   only candidates whose verdict cannot flip.  Returns the final result,
   the enlarged seed set (ascending, deduplicated) and the number of
   accepted pointers. *)
let xref ?(max_rounds = 64) loaded ~seeds =
  let open Fetch_core in
  let rec loop budget seeds accepted =
    let res = recursive loaded ~seeds in
    if budget <= 0 then (res, List.sort_uniq compare seeds, accepted)
    else
      let extents = Xref.extents loaded res in
      let acceptable cand =
        (not (Hashtbl.mem res.Recursive.funcs cand))
        &&
        match Xref.validate loaded res ~extents cand with
        | Xref.Accept -> true
        | Xref.Rejected _ -> false
      in
      match
        List.find_opt acceptable
          (Refs.pointer_candidates (Refs.collect loaded res))
      with
      | None -> (res, List.sort_uniq compare seeds, accepted)
      | Some cand ->
          loop (budget - 1) (List.sort_uniq compare (cand :: seeds)) (accepted + 1)
  in
  loop max_rounds seeds 0
