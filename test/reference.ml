(* Reference models for the incremental engines, shared by the tier-1
   suite and test/fuzz_noreturn.ml.  Each recomputes from scratch, with
   no cache and no worklist, so agreeing with it holds the incremental
   code to the plain definition. *)

open Fetch_x86
open Fetch_analysis
module Insn_index = Fetch_util.Insn_index

(* The engine's walk, one instruction at a time: the model the cached
   block walk of [Recursive] is held to.  [walk] disassembles the
   function at [entry] breadth-first.  A run decodes from a queued
   address until a control transfer, a call that cannot return, a
   decode error, a start ([is_start], except [entry]) or an address
   where a run of this walk began.  Each queued address carries the
   instructions of the runs that fell through to it, newest first, the
   jump-table window.  [~safe:false] is the BAP model's weaker engine:
   every call returns and no jump table is resolved. *)
type ending =
  | End_ret
  | End_halt
  | End_jump of int
  | End_cond of int * int
  | End_indirect of Insn.operand
  | End_stop  (** a call that cannot return, a start or a known run *)
  | End_error

let walk ?(safe = true) loaded ~noreturn ~cond_noreturn ~is_start entry :
    Recursive.func =
  let tbl = loaded.Loaded.table in
  let f = Recursive.
    {
      entry;
      blocks = [];
      calls = [];
      out_jumps = [];
      all_jump_sites = [];
      table_targets = [];
      unresolved_indirect_jump = false;
      has_ret = false;
      decode_error = false;
    }
  in
  let visited = Hashtbl.create 16 and pending = Queue.create () in
  (* the first argument after the run so far, newest first *)
  let first_arg acc =
    List.fold_right
      (fun a arg -> Recursive.first_arg_step tbl (Insn_table.find tbl a) arg)
      acc Recursive.Unknown
  in
  let rec run addr acc =
    if (addr <> entry && is_start addr) || (Hashtbl.mem visited addr && acc <> [])
    then (acc, End_stop)
    else
      let s = Insn_table.find tbl addr in
      if s < 0 then (acc, End_error)
      else
        let len = Insn_table.len tbl s in
        let acc' = addr :: acc in
        match Insn_table.flow tbl s with
        | Semantics.Fall -> run (addr + len) acc'
        | Semantics.Ret ->
            f.has_ret <- true;
            (acc', End_ret)
        | Semantics.Halt -> (acc', End_halt)
        | Semantics.Jump (Semantics.Direct t) -> (acc', End_jump t)
        | Semantics.Jump (Semantics.Indirect op) -> (acc', End_indirect op)
        | Semantics.Cond t -> (acc', End_cond (t, addr + len))
        | Semantics.Callf (Semantics.Direct t) ->
            f.calls <- (addr, t) :: f.calls;
            if
              (not safe)
              || Recursive.call_returns ~noreturn ~cond_noreturn (first_arg acc) t
            then
              run (addr + len) acc'
            else (acc', End_stop)
        | Semantics.Callf (Semantics.Indirect _) -> run (addr + len) acc'
  in
  Queue.add (entry, []) pending;
  while not (Queue.is_empty pending) do
    let b, inherited = Queue.pop pending in
    if not (Hashtbl.mem visited b) then begin
      Hashtbl.replace visited b ();
      let rev_addrs, ending = run b [] in
      (match rev_addrs with
      | last :: _ ->
          f.blocks <- (b, last + Insn_table.len tbl (Insn_table.find tbl last)) :: f.blocks
      | [] -> ());
      let window = rev_addrs @ inherited in
      let add ?(window = []) t =
        if not (Hashtbl.mem visited t) then Queue.add (t, window) pending
      in
      let leaves t = is_start t && t <> entry in
      let site = match rev_addrs with a :: _ -> a | [] -> b in
      match ending with
      | End_ret | End_halt | End_stop -> ()
      | End_error -> f.decode_error <- true
      | End_jump t ->
          f.all_jump_sites <- (site, t) :: f.all_jump_sites;
          if leaves t then f.out_jumps <- (site, t) :: f.out_jumps
          else if Loaded.in_text loaded t then add t
          else f.out_jumps <- (site, t) :: f.out_jumps
      | End_cond (t, fall) ->
          f.all_jump_sites <- (site, t) :: f.all_jump_sites;
          (if leaves t then f.out_jumps <- (site, t) :: f.out_jumps
           else if Loaded.in_text loaded t then add t);
          add ~window fall
      | End_indirect _ when not safe -> f.unresolved_indirect_jump <- true
      | End_indirect op -> (
          let preceding =
            List.map
              (fun a ->
                let s = Insn_table.find tbl a in
                (a, Insn_table.len tbl s, Insn_table.insn tbl s))
              (List.tl window)
          in
          match Jump_table.resolve loaded.Loaded.image ~preceding op with
          | Some { Jump_table.table_addr; targets } ->
              f.table_targets <- (table_addr, targets) :: f.table_targets;
              List.iter (fun t -> add t) (List.sort_uniq compare targets)
          | None -> f.unresolved_indirect_jump <- true)
    end
  done;
  f

(* [Recursive.detect_cond_noreturn], one instruction at a time: the
   entry is [test rdi, rdi; je], and the nonzero path runs straight into
   a halt within eight instructions other than syscalls. *)
let detect_cond_noreturn loaded entry =
  let tbl = loaded.Loaded.table in
  let rec never_returns addr fuel =
    fuel > 0
    &&
    let s = Insn_table.find tbl addr in
    s >= 0
    &&
    let next = addr + Insn_table.len tbl s in
    match (Insn_table.insn tbl s, Insn_table.flow tbl s) with
    | Insn.Syscall, _ -> never_returns next fuel
    | _, Semantics.Fall -> never_returns next (fuel - 1)
    | _, Semantics.Halt -> true
    | _, (Semantics.Ret | Semantics.Jump _ | Semantics.Cond _ | Semantics.Callf _) -> false
  in
  match Loaded.insn_at loaded entry with
  | Some (Insn.Test (_, Reg.Rdi, Reg.Rdi), len) -> (
      match Loaded.insn_at loaded (entry + len) with
      | Some ((Insn.Jcc (Insn.E, _) | Insn.Jcc_short (Insn.E, _)), jlen) ->
          never_returns (entry + len + jlen) 8
      | _ -> false)
  | _ -> false

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
  let walk ~is_start e = walk loaded ~noreturn ~cond_noreturn ~is_start e in
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
                 (fun (_, t) ->
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
        let cond = detect_cond_noreturn loaded e in
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

(* The engine's walks equal the per-instruction model's on the facts
   and entries of [run]: the body kept for every entry, and, for every
   entry and every seed, a walk that stops at every entry, one that stops
   only at the seeds, the weaker engine's walk and the [error]-style
   test.  Each walk is compared twice: over the blocks [run] left, and
   over an empty block cache. *)
let walks_agree loaded ~seeds =
  let res = Recursive.run loaded ~seeds in
  let noreturn = res.noreturn and cond_noreturn = res.cond_noreturn in
  let table keys =
    let t = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace t e ()) keys;
    t
  in
  let entries = table (Recursive.starts res)
  and seed = table (List.filter (Loaded.in_text loaded) seeds) in
  (* a fresh load of [loaded]'s image, with an empty block cache: a walk
     on it splits blocks as it goes, a walk on [loaded] reads blocks [run]
     already split *)
  let cold () = Loaded.load loaded.Loaded.image in
  let same ?safe starts e =
    let model = walk ?safe loaded ~noreturn ~cond_noreturn ~is_start:(Hashtbl.mem starts) e in
    Recursive.walk ?safe loaded ~noreturn ~cond_noreturn ~starts e = model
    && Recursive.walk ?safe (cold ()) ~noreturn ~cond_noreturn ~starts e = model
  in
  List.for_all
    (fun e ->
      Hashtbl.find res.funcs e
      = walk loaded ~noreturn ~cond_noreturn ~is_start:(Hashtbl.mem entries) e
      && same entries e && same seed e && same ~safe:false seed e
      && Recursive.detect_cond_noreturn loaded e = detect_cond_noreturn loaded e)
    (Recursive.starts res @ keys seed)

(* Everything [run] and [Xref.detect] answer on [loaded], whose block
   cache earlier calls have warmed, equals their answer on a fresh load
   of the same image: the same functions, field for field, spans, facts
   and seeds. *)
let warm_like_fresh loaded ~seeds =
  let funcs (res : Recursive.result) =
    List.map (Hashtbl.find res.funcs) (Recursive.starts res)
  in
  let answer l =
    let r = Recursive.run l ~seeds in
    let d, s, _ = Fetch_core.Xref.detect l ~seeds in
    (signature r, funcs r, signature d, funcs d, s)
  in
  answer loaded = answer (Loaded.load loaded.Loaded.image)

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
   collection from scratch, so error (iii) reads the code bits of a
   fresh instruction table, and re-validates every candidate that is
   not a detected entry.  It retires no candidate, so agreeing with it
   also checks that [Xref.detect] retires only candidates whose verdict
   cannot flip.  Returns the final result,
   the enlarged seed set (ascending, deduplicated) and the number of
   accepted pointers. *)
let xref ?(max_rounds = 64) loaded ~seeds =
  let open Fetch_core in
  let rec loop budget seeds accepted =
    let res = recursive loaded ~seeds in
    if budget <= 0 then (res, List.sort_uniq compare seeds, accepted)
    else
      let acceptable cand =
        (not (Hashtbl.mem res.Recursive.funcs cand))
        &&
        match Xref.validate loaded res cand with
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

(* ---- The dataflow engine, one instruction at a time: the model the
   block-stepping solves of [Fetch_check.Dataflow] are held to.  A walk
   applies the transfer at every instruction and records every
   pre-state by address (first write wins, or joined); the policy is the
   engine's own, asked per address ([may_walk a (a + 1)]). *)

module Dataflow = Fetch_check.Dataflow

module Solve (L : Dataflow.LATTICE) = struct
  type solution = {
    states : (int, L.state) Hashtbl.t;
    fatal : L.fatal option;
    exhausted : bool;
    blocks_walked : int;
    steps : int;
    joins : int;
  }

  exception Fatal_stop of L.fatal

  let solve ?(max_block_insns = 4096) ?(max_blocks = 4096) ?(record = true) tbl
      (policy : (L.state, L.fatal) Dataflow.policy) ~merge ~entry ~init () =
    let joining = merge = Dataflow.Join_fixpoint in
    let states = Hashtbl.create 64 and in_states = Hashtbl.create 32 in
    let visited = Hashtbl.create 32 in
    let stack = ref [] and fifo = Queue.create () in
    let push succs =
      match policy.order with
      | Dataflow.Depth_first -> stack := succs @ !stack
      | Dataflow.Breadth_first -> List.iter (fun x -> Queue.add x fifo) succs
    in
    let pop () =
      match (policy.order, !stack) with
      | Dataflow.Depth_first, x :: rest ->
          stack := rest;
          Some x
      | Dataflow.Depth_first, [] -> None
      | Dataflow.Breadth_first, _ -> Queue.take_opt fifo
    in
    let exhausted = ref false and blocks = ref 0 and steps = ref 0 and joins = ref 0 in
    let stop_walk a = not (policy.may_walk a (a + 1)) in
    let record_state addr st =
      if record then
        match Hashtbl.find_opt states addr with
        | None -> Hashtbl.replace states addr st
        | Some old ->
            if joining then
              let j = L.join old st in
              if not (L.equal j old) then Hashtbl.replace states addr j
    in
    let walk_block b st0 =
      let succs = ref [] in
      let emit st t =
        if Insn_table.in_text tbl t && not (stop_walk t) then
          succs := (t, policy.edge_state st) :: !succs
      in
      (* the reversed (addr, len, insn) run from [b] through [upto] *)
      let window_to upto =
        let rec run a acc =
          if a > upto then acc
          else
            let s = Insn_table.find tbl a in
            let len = Insn_table.len tbl s in
            run (a + len) ((a, len, Insn_table.insn tbl s) :: acc)
        in
        run b []
      in
      let rec go addr st fuel =
        if fuel <= 0 then exhausted := true
        else if stop_walk addr then ()
        else
          let s = Insn_table.find tbl addr in
          if s < 0 then (
            match policy.undecodable addr with
            | Some f -> raise (Fatal_stop f)
            | None -> ())
          else begin
            incr steps;
            record_state addr st;
            match L.transfer tbl ~addr s st with
            | Dataflow.Fatal f -> raise (Fatal_stop f)
            | Dataflow.Drop -> ()
            | Dataflow.Step st' -> (
                let next = addr + Insn_table.len tbl s in
                match Insn_table.flow tbl s with
                | Semantics.Fall | Semantics.Callf (Semantics.Indirect _) ->
                    go next st' (fuel - 1)
                | Semantics.Ret | Semantics.Halt -> ()
                | Semantics.Jump (Semantics.Direct t) ->
                    emit st' t;
                    if policy.linear_after_jump next then go next st' (fuel - 1)
                | Semantics.Cond t ->
                    emit st' t;
                    if policy.inline_cond_fallthrough then go next st' (fuel - 1)
                    else emit st' next
                | Semantics.Jump (Semantics.Indirect op) -> (
                    match policy.resolve_indirect ~window:(window_to addr) op with
                    | Some ts -> List.iter (emit st') ts
                    | None ->
                        if policy.linear_after_indirect next then
                          go next st' (fuel - 1))
                | Semantics.Callf (Semantics.Direct t) ->
                    if policy.call_returns t st then go next st' (fuel - 1))
          end
      in
      go b st0 max_block_insns;
      List.rev !succs
    in
    let admit succs =
      if not joining then succs
      else
        List.filter_map
          (fun (t, s) ->
            match Hashtbl.find_opt in_states t with
            | None ->
                Hashtbl.replace in_states t s;
                Some (t, s)
            | Some old ->
                let j = L.join old s in
                if L.equal j old then None
                else begin
                  incr joins;
                  Hashtbl.replace in_states t j;
                  Some (t, j)
                end)
          succs
    in
    if joining then Hashtbl.replace in_states entry init;
    push [ (entry, init) ];
    let fatal =
      try
        let rec loop () =
          match pop () with
          | None -> ()
          | Some (b, st) ->
              if !blocks >= max_blocks then exhausted := true
              else begin
                if joining || not (Hashtbl.mem visited b) then begin
                  Hashtbl.replace visited b ();
                  incr blocks;
                  push (admit (walk_block b st))
                end;
                loop ()
              end
        in
        loop ();
        None
      with Fatal_stop f -> Some f
    in
    { states; fatal; exhausted = !exhausted; blocks_walked = !blocks; steps = !steps; joins = !joins }
end

(* Both engines on one problem: [Ok ()] when the block-stepping solve
   equals the model in verdict, fuel, counts and every recorded state,
   [Error] naming the first difference otherwise. *)
module Agree (L : Dataflow.LATTICE) = struct
  module B = Dataflow.Make (L)
  module M = Solve (L)

  let check ?max_block_insns ?max_blocks ?record bt policy ~merge ~entry ~init () =
    let tbl = Fetch_x86.Block_table.table bt in
    let m = M.solve ?max_block_insns ?max_blocks ?record tbl policy ~merge ~entry ~init () in
    let b = B.solve ?max_block_insns ?max_blocks ?record bt policy ~merge ~entry ~init () in
    let states = Hashtbl.create 64 and twice = ref false in
    B.iter_states tbl b (fun a st ->
        if Hashtbl.mem states a then twice := true;
        Hashtbl.replace states a st);
    let same_states =
      Hashtbl.length states = Hashtbl.length m.states
      && Hashtbl.fold
           (fun a st ok ->
             ok && match Hashtbl.find_opt states a with Some st' -> L.equal st st' | None -> false)
           m.states true
    in
    let diff what = Error (Printf.sprintf "entry %#x: %s" entry what) in
    if b.fatal <> m.fatal then diff "verdict"
    else if b.exhausted <> m.exhausted then diff "fuel"
    else if b.blocks_walked <> m.blocks_walked then diff "blocks walked"
    else if b.steps <> m.steps then diff "steps"
    else if b.joins <> m.joins then diff "joins"
    else if !twice then diff "an instruction recorded twice"
    else if not same_states then diff "recorded states"
    else Ok ()
end

module Callconv_agree = Agree (Callconv.Lattice)
module Heights_agree = Agree (Stack_height.Lattice)
module Lint_agree = Agree (Fetch_check.Lint.Height)

(* [Callconv.validate], on the model engine *)
let callconv loaded res start =
  if not (Loaded.in_text loaded start) then Error { Callconv.at = start; reg = None }
  else
    let sol =
      Callconv_agree.M.solve ~max_block_insns:Callconv.max_insns
        ~max_blocks:Callconv.max_blocks ~record:false loaded.Loaded.table
        (Callconv.policy res) ~merge:Dataflow.First_write_wins ~entry:start
        ~init:Callconv.entry_state ()
    in
    match sol.fatal with Some v -> Error v | None -> Ok ()

(* [Stack_height.analyze], on the model engine: the heights by address *)
let stack_heights loaded ~style entry =
  (Heights_agree.M.solve ~max_block_insns:max_int ~max_blocks:max_int
     loaded.Loaded.table (Stack_height.policy loaded ~style)
     ~merge:Dataflow.First_write_wins ~entry ~init:0 ())
    .states

(* [Fetch_check.Lint.run] with its two solving rules on the model
   engine: [start-callconv] through {!callconv}, and [height-mismatch]
   comparing every recorded address with the oracle. *)
let lint loaded res (v : Fetch_check.Lint.view) =
  let module Lint = Fetch_check.Lint in
  let others =
    Lint.run
      {
        v with
        callconv_ok = (fun s -> Result.is_ok (callconv loaded res s));
        complete_at = (fun _ -> false);
      }
  in
  let tbl = Fetch_x86.Block_table.table v.block_table in
  let heights =
    List.filter_map
      (fun (f : Lint.func) ->
        if not (v.complete_at f.entry) then None
        else
          let sol =
            Lint_agree.M.solve tbl (Lint.height_policy v f) ~merge:Dataflow.Join_fixpoint
              ~entry:f.entry ~init:(Lint.Height.Known 0) ()
          in
          Hashtbl.fold
            (fun addr st worst ->
              match (st, v.oracle_height addr) with
              | Lint.Height.Known h, Some oh when h <> oh -> (
                  match worst with
                  | Some (a, _, _) when a <= addr -> worst
                  | _ -> Some (addr, h, oh))
              | _ -> worst)
            sol.states None
          |> Option.map (fun (addr, h, oh) ->
                 {
                   Fetch_check.Finding.rule = "height-mismatch";
                   severity = Fetch_check.Finding.Warning;
                   addr;
                   related = Some f.entry;
                   message =
                     Printf.sprintf
                       "static stack height %d disagrees with the CFI oracle (%d)" h oh;
                 }))
      v.funcs
  in
  List.sort Fetch_check.Finding.compare (others @ heights)

(* Every solve behind the detection [res] on [loaded], and the
   linter's, against the model engine, for the functions at [starts]
   and the candidates [cands]: §IV-E's verdict at each, its full solve,
   both stack-height styles from each start (the heights by address and
   the full solves), and the lint report of [view] with its two solving
   rules on the model.  [Ok ()] or the first difference. *)
let solves_agree loaded res ~starts ~cands (view : Fetch_check.Lint.view) =
  let ( let* ) = Result.bind in
  let bt = loaded.Loaded.blocks in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        each f rest
  in
  let* () =
    each
      (fun s ->
        if Callconv.validate loaded res s <> callconv loaded res s then
          Error (Printf.sprintf "callconv verdict at %#x" s)
        else if not (Loaded.in_text loaded s) then Ok ()
        else
          Callconv_agree.check ~max_block_insns:Callconv.max_insns
            ~max_blocks:Callconv.max_blocks ~record:false bt (Callconv.policy res)
            ~merge:Dataflow.First_write_wins ~entry:s ~init:Callconv.entry_state ())
      (starts @ cands)
  in
  let* () =
    each
      (fun s ->
        each
          (fun style ->
            let model = stack_heights loaded ~style s in
            let heights = Stack_height.analyze loaded ~style s in
            let keys = Hashtbl.fold (fun a _ acc -> a :: acc) model [] in
            let lo = List.fold_left min s keys and hi = List.fold_left max s keys in
            let rec same a =
              a > hi + 16 || (heights a = Hashtbl.find_opt model a && same (a + 1))
            in
            if not (same (lo - 16)) then Error (Printf.sprintf "stack heights from %#x" s)
            else
              Heights_agree.check ~max_block_insns:max_int ~max_blocks:max_int bt
                (Stack_height.policy loaded ~style) ~merge:Dataflow.First_write_wins
                ~entry:s ~init:0 ())
          [ Stack_height.Angr; Stack_height.Dyninst ])
      starts
  in
  let* () =
    each
      (fun (f : Fetch_check.Lint.func) ->
        if not (view.complete_at f.entry) then Ok ()
        else
          Lint_agree.check bt (Fetch_check.Lint.height_policy view f)
            ~merge:Dataflow.Join_fixpoint ~entry:f.entry
            ~init:(Fetch_check.Lint.Height.Known 0) ())
      view.funcs
  in
  if Fetch_check.Lint.run view <> lint loaded res view then Error "lint findings"
  else Ok ()
