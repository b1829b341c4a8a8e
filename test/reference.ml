(* Reference models for the incremental engines, shared by the tier-1
   suite and test/fuzz_noreturn.ml.  Each recomputes from scratch, with
   no cache and no worklist, so agreeing with it holds the incremental
   code to the plain definition. *)

open Fetch_analysis
module Insn_index = Fetch_util.Insn_index

(* The noreturn fixpoint of DESIGN.md, computed naively.  Each pass
   starts from nothing but the facts: the entries are the seeds plus
   every text callee that a discovery walk (one that stops only at
   seeds) reaches from them, each entry's body is its walk that stops at
   every entry, and every noreturn and [error]-style fact the bodies
   imply is learned.  Passes repeat until one learns nothing; then the
   facts of entries that did not stay are dropped, and the bodies'
   instructions are the spans, in ascending entry order, first writer
   first. *)
let recursive loaded ~seeds : Recursive.result =
  let noreturn = Hashtbl.create 16 and cond_noreturn = Hashtbl.create 4 in
  let seed = Hashtbl.create 16 in
  List.iter
    (fun s -> if Loaded.in_text loaded s then Hashtbl.replace seed s ())
    seeds;
  let walk ~is_start e =
    Recursive.walk loaded ~noreturn ~cond_noreturn ~is_start ~on_call:ignore e
  in
  let rec pass () =
    let entries = Hashtbl.create 64 in
    let rec discover e =
      if not (Hashtbl.mem entries e) then begin
        Hashtbl.replace entries e ();
        List.iter
          (fun (_, t) -> if Loaded.in_text loaded t then discover t)
          (walk ~is_start:(Hashtbl.mem seed) e).calls
      end
    in
    Hashtbl.iter (fun s () -> discover s) seed;
    let funcs = Hashtbl.create 64 in
    Hashtbl.iter
      (fun e () -> Hashtbl.replace funcs e (walk ~is_start:(Hashtbl.mem entries) e))
      entries;
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
      let drop tbl =
        List.iter
          (fun e -> if not (Hashtbl.mem funcs e) then Hashtbl.remove tbl e)
          (Hashtbl.fold (fun e () acc -> e :: acc) tbl [])
      in
      drop noreturn;
      drop cond_noreturn;
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
        (fun e ->
          let f : Recursive.func = Hashtbl.find funcs e in
          List.iter (fun (lo, hi) -> add lo hi) (List.rev f.blocks))
        (List.sort compare (Hashtbl.fold (fun e _ acc -> e :: acc) funcs []));
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

(* [run] on [seeds] against [run] on the first [k] of them followed by
   [extend] with the rest.  [extend] must refuse the rest when one of
   them lies inside the prefix run's instructions (its precondition),
   and leave the result as it was: extending it with the rest that lies
   outside must then equal [run] on the prefix and those.  Otherwise
   [extend] must take the rest to what [run] gives on all of [seeds].
   [Ok refused] when the results agree. *)
let run_then_extend loaded ~seeds k =
  let prefix = List.filteri (fun i _ -> i < k) seeds
  and rest = List.filteri (fun i _ -> i >= k) seeds in
  let grown = Recursive.run loaded ~seeds:prefix in
  let outside =
    List.filter
      (fun s ->
        Hashtbl.mem grown.funcs s || not (Insn_index.mem grown.insn_spans s))
      rest
  in
  let refused = List.length outside < List.length rest in
  let agrees seeds =
    if signature grown = signature (Recursive.run loaded ~seeds) then Ok refused
    else Error (Printf.sprintf "run <> run on %d seeds + extend" k)
  in
  match Recursive.extend loaded grown ~seeds:rest with
  | exception Invalid_argument _ when refused ->
      ignore (Recursive.extend loaded grown ~seeds:outside);
      agrees (prefix @ outside)
  | exception Invalid_argument m -> Error ("extend refused: " ^ m)
  | _ when refused -> Error "extend took a seed inside the committed instructions"
  | _ -> agrees seeds

(* [run] gives the same result with the seeds reversed, rotated or
   repeated. *)
let order_free loaded ~seeds =
  let s = signature (Recursive.run loaded ~seeds) in
  let rotated = match seeds with [] -> [] | x :: rest -> rest @ [ x ] in
  List.for_all
    (fun seeds -> signature (Recursive.run loaded ~seeds) = s)
    [ List.rev seeds; rotated; seeds @ List.rev seeds ]

(* Reference model of §IV-E detection, built on [Xref.validate]: every
   round re-runs disassembly (the naive fixpoint above) and ref
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
