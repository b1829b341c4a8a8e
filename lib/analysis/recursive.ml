(** Recursive-descent disassembly engine: the "safe recursive disassembly"
    of §IV-C, which FETCH and the GHIDRA, ANGR and pattern-tool models all
    start from.

    Starting from a seed set of function entries (FDE starts, symbols), the
    engine follows intra-procedural control flow per function, adds targets
    of direct calls as new function entries, resolves bounds-checked jump
    tables, skips indirect calls, performs no tail-call guessing — a direct
    jump to a known function entry ends the block and is recorded as an
    outgoing jump — and iterates a non-returning-function analysis so no
    block is placed after a call that cannot return.  [run ~safe:false]
    drops both the table resolution and the noreturn analysis: the weaker
    engine of the BAP model. *)

open Fetch_x86
module Obs = Fetch_obs.Trace
module Prov = Fetch_obs.Provenance
module Insn_index = Fetch_util.Insn_index
module Itbl = Hashtbl.Make (Int)

(* Stage instrumentation (no-ops unless a Fetch_obs run is active). *)
let c_insns_decoded = Obs.counter "recursive.insns_decoded"
let c_funcs_disassembled = Obs.counter "recursive.functions_disassembled"
let c_tables_resolved = Obs.counter "recursive.jump_tables_resolved"
let c_noreturn_iters = Obs.counter "recursive.noreturn_iters"
let c_extend_runs = Obs.counter "recursive.extend_runs"
let c_extend_funcs = Obs.counter "recursive.extend_funcs"
let h_block_insns = Obs.histogram "recursive.block_insns"

let max_noreturn_iters = 5

type func = {
  entry : int;
  mutable blocks : (int * int) list;  (** decoded [lo, hi) ranges *)
  mutable calls : (int * int) list;  (** call site, direct target *)
  mutable out_jumps : (int * Insn.t * int) list;
      (** direct jumps leaving the function: site, insn, target *)
  mutable all_jump_sites : (int * Insn.t * int) list;
      (** every direct/conditional jump with its target (incl. intra) *)
  mutable table_targets : (int * int list) list;  (** resolved jump tables *)
  mutable unresolved_indirect_jump : bool;
  mutable has_ret : bool;
  mutable has_indirect_call : bool;
  mutable decode_error : bool;
}

type result = {
  funcs : (int, func) Hashtbl.t;
  noreturn : (int, unit) Hashtbl.t;  (** entries that can never return *)
  cond_noreturn : (int, unit) Hashtbl.t;  (** [error]-style entries *)
  insn_spans : Insn_index.t;  (** every decoded instruction extent *)
}

let new_func entry =
  {
    entry;
    blocks = [];
    calls = [];
    out_jumps = [];
    all_jump_sites = [];
    table_targets = [];
    unresolved_indirect_jump = false;
    has_ret = false;
    has_indirect_call = false;
    decode_error = false;
  }

(* Identify [error]-style conditionally non-returning functions: the entry
   tests the first argument, branches to the returning path on zero, and
   the nonzero (fallthrough) path provably never returns — it runs
   straight into an exit syscall or a trap. *)
let detect_cond_noreturn loaded entry =
  let rec path_never_returns addr fuel =
    if fuel <= 0 then false
    else
      match Loaded.insn_at loaded addr with
      | Some (Insn.Ud2, _) | Some (Insn.Hlt, _) -> true
      | Some (Insn.Syscall, len) -> path_never_returns (addr + len) fuel
      | Some (insn, len) -> (
          match Semantics.flow insn with
          | Semantics.Fall -> path_never_returns (addr + len) (fuel - 1)
          | Semantics.Ret | Semantics.Jump _ | Semantics.Cond _
          | Semantics.Callf _ ->
              false
          | Semantics.Halt -> true)
      | None -> false
  in
  match Loaded.insn_at loaded entry with
  | Some (Insn.Test (_, Reg.Rdi, Reg.Rdi), len) -> (
      match Loaded.insn_at loaded (entry + len) with
      | Some (Insn.Jcc (Insn.E, _), jlen) | Some (Insn.Jcc_short (Insn.E, _), jlen)
        ->
          path_never_returns (entry + len + jlen) 8
      | _ -> false)
  | _ -> false

(* At a call site to a conditional-noreturn callee, decide whether the call
   returns: the paper runs a backward slice of the first argument and treats
   the call as returning only when the argument provably flows from zero. *)
let call_error_returns (prior : (int * int * Insn.t) list) =
  let rec scan = function
    | [] -> false (* unknown: treat as non-returning *)
    | (_, _, insn) :: rest -> (
        match insn with
        | Insn.Mov (_, Insn.Reg Reg.Rdi, Insn.Imm 0) -> true
        | Insn.Mov (_, Insn.Reg Reg.Rdi, Insn.Imm _) -> false
        | Insn.Arith (Insn.Xor, _, Insn.Reg Reg.Rdi, Insn.Reg Reg.Rdi) -> true
        | Insn.Mov (_, Insn.Reg Reg.Rdi, _) -> false
        | Insn.Lea (Reg.Rdi, _) -> false
        | Insn.Pop Reg.Rdi -> false
        | _ -> scan rest)
  in
  scan prior

(* Decode one basic block starting at [addr]; returns the decoded
   instructions (in order) and the block's control-flow ending. *)
type block_end =
  | End_ret
  | End_halt
  | End_jump of Insn.t * int
  | End_cond of Insn.t * int * int  (** insn, taken target, fallthrough *)
  | End_indirect of Insn.operand * (int * int * Insn.t) list
      (** operand + reversed prior window for table resolution *)
  | End_call_noreturn
  | End_fallthrough of int  (** ran into a known block/function start *)
  | End_error

let rec decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start
    ~block_known addr acc =
  if addr <> f.entry && is_start addr then
    (List.rev acc, End_fallthrough addr)
  else if block_known addr && acc <> [] then (List.rev acc, End_fallthrough addr)
  else
    match Loaded.insn_at loaded addr with
    | None -> (List.rev acc, End_error)
    | Some (insn, len) -> (
        Obs.incr c_insns_decoded;
        let acc' = (addr, len, insn) :: acc in
        match Semantics.flow insn with
        | Semantics.Fall ->
            decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start
              ~block_known (addr + len) acc'
        | Semantics.Ret ->
            f.has_ret <- true;
            (List.rev acc', End_ret)
        | Semantics.Halt -> (List.rev acc', End_halt)
        | Semantics.Jump (Semantics.Direct t) ->
            (List.rev acc', End_jump (insn, t))
        | Semantics.Jump (Semantics.Indirect op) ->
            (List.rev acc', End_indirect (op, acc'))
        | Semantics.Cond t -> (List.rev acc', End_cond (insn, t, addr + len))
        | Semantics.Callf (Semantics.Direct t) ->
            f.calls <- (addr, t) :: f.calls;
            let returns =
              if not safe then true
              else if Hashtbl.mem noreturn t then false
              else if Hashtbl.mem cond_noreturn t then
                call_error_returns acc (* prior, excluding the call itself *)
              else true
            in
            if returns then
              decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start
                ~block_known (addr + len) acc'
            else (List.rev acc', End_call_noreturn)
        | Semantics.Callf (Semantics.Indirect _) ->
            f.has_indirect_call <- true;
            decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start
              ~block_known (addr + len) acc')

(* The instructions one walk decoded, in decode order, each packed as
   [lo lsl 8 lor len] (lengths are at most [Insn_index.max_len]), so
   holding them until the pass commits keeps no block per instruction
   alive. *)
type decoded = { mutable packed : int array; mutable n : int }

let push d lo len =
  if d.n = Array.length d.packed then begin
    let bigger = Array.make (max 256 (2 * d.n)) 0 in
    Array.blit d.packed 0 bigger 0 d.n;
    d.packed <- bigger
  end;
  d.packed.(d.n) <- (lo lsl 8) lor len;
  d.n <- d.n + 1

(* Disassemble one function from [entry].  Each decoded block's
   instructions are pushed onto [decoded]; they reach the instruction
   table only when the pass is committed.  Pending blocks carry the
   reversed instruction window of their fallthrough predecessor so
   jump-table slicing can look across block boundaries (the bounds check
   `cmp/ja` ends the block before the dispatch jump). *)
let disasm_function loaded ~safe ~noreturn ~cond_noreturn ~is_start ~decoded
    ~new_entries entry =
  Obs.incr c_funcs_disassembled;
  let f = new_func entry in
  let visited = Itbl.create 16 in
  let pending = Queue.create () in
  Queue.add (entry, []) pending;
  let block_known a = Itbl.mem visited a in
  while not (Queue.is_empty pending) do
    let b, inherited = Queue.pop pending in
    if not (Itbl.mem visited b) then begin
      Itbl.replace visited b ();
      let calls_before = f.calls in
      let insns, ending =
        decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start
          ~block_known b []
      in
      if Obs.enabled () then Obs.observe h_block_insns (List.length insns);
      let rev_insns = List.rev insns in
      (match (insns, rev_insns) with
      | (lo, _, _) :: _, (last_addr, last_len, _) :: _ ->
          f.blocks <- (lo, last_addr + last_len) :: f.blocks;
          List.iter (fun (a, l, _) -> push decoded a l) insns
      | _ -> ());
      (* register the callees this block discovered, newest first — the
         calls of earlier blocks are already known *)
      let rec register_new calls =
        if calls != calls_before then
          match calls with
          | (site, t) :: rest ->
              new_entries ~site t;
              register_new rest
          | [] -> ()
      in
      register_new f.calls;
      let window = rev_insns @ inherited in
      let add_block ?(window = []) t =
        if not (Itbl.mem visited t) then Queue.add (t, window) pending
      in
      match ending with
      | End_ret | End_halt | End_call_noreturn -> ()
      | End_error -> f.decode_error <- true
      | End_fallthrough t ->
          (* ran into an existing block of this function: fine; into another
             function's entry: record nothing (no tail-call guessing) *)
          if not (is_start t) then add_block ~window t
      | End_jump (insn, t) ->
          let site = match rev_insns with (a, _, _) :: _ -> a | [] -> b in
          f.all_jump_sites <- (site, insn, t) :: f.all_jump_sites;
          if is_start t && t <> entry then
            f.out_jumps <- (site, insn, t) :: f.out_jumps
          else if Loaded.in_text loaded t then add_block t
          else f.out_jumps <- (site, insn, t) :: f.out_jumps
      | End_cond (insn, t, fall) ->
          let site = match rev_insns with (a, _, _) :: _ -> a | [] -> b in
          f.all_jump_sites <- (site, insn, t) :: f.all_jump_sites;
          (if is_start t && t <> entry then
             f.out_jumps <- (site, insn, t) :: f.out_jumps
           else if Loaded.in_text loaded t then add_block t);
          (* the fallthrough block inherits the window across the branch *)
          add_block ~window fall
      | End_indirect (op, rev_window) -> (
          if not safe then f.unresolved_indirect_jump <- true
          else
            let preceding =
              match rev_window @ inherited with
              | _jmp :: preceding -> preceding
              | [] -> []
            in
            match Jump_table.resolve loaded.Loaded.image ~preceding op with
            | Some { Jump_table.table_addr; targets } ->
                Obs.incr c_tables_resolved;
                f.table_targets <- (table_addr, targets) :: f.table_targets;
                List.iter (fun t -> add_block t) (List.sort_uniq compare targets)
            | None -> f.unresolved_indirect_jump <- true)
    end
  done;
  f

(* Can the function return?  Propagated over the tail-jump graph. *)
let compute_returns funcs =
  let returns = Hashtbl.create (Hashtbl.length funcs) in
  let base f =
    f.has_ret || f.unresolved_indirect_jump || f.decode_error
  in
  Hashtbl.iter (fun e f -> if base f then Hashtbl.replace returns e ()) funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun e f ->
        if not (Hashtbl.mem returns e) then
          let via_jump =
            List.exists
              (fun (_, _, t) ->
                (not (Hashtbl.mem funcs t)) || Hashtbl.mem returns t)
              f.out_jumps
          in
          if via_jump then begin
            Hashtbl.replace returns e ();
            changed := true
          end)
      funcs
  done;
  returns

(* One noreturn fixpoint pass's verdicts: mark the functions that cannot
   return and the [error]-style ones.  [detect_cond_noreturn] decodes
   through the memo, so it runs before the membership tests, in this
   order.  True when a fact was learned. *)
let learn_noreturn loaded res =
  let returns = compute_returns res.funcs in
  let changed = ref false in
  Hashtbl.iter
    (fun e _ ->
      if not (Hashtbl.mem returns e) then
        if detect_cond_noreturn loaded e then begin
          (* cannot happen: cond-noreturn fns have a ret *) ()
        end
        else if not (Hashtbl.mem res.noreturn e) then begin
          Hashtbl.replace res.noreturn e ();
          changed := true
        end)
    res.funcs;
  Hashtbl.iter
    (fun e _ ->
      if
        Hashtbl.mem returns e
        && (not (Hashtbl.mem res.cond_noreturn e))
        && detect_cond_noreturn loaded e
      then begin
        Hashtbl.replace res.cond_noreturn e ();
        changed := true
      end)
    res.funcs;
  !changed

type delta = { new_funcs : func list; new_spans : (int * int) list }

(* The one engine loop behind [run] and [extend]: walk every function
   reachable from [seeds] that [res] does not hold yet, re-walk that pass
   while the noreturn fixpoint learns facts (they can shrink its blocks,
   never the committed ones), then commit the last pass's instructions to
   [res.insn_spans] in decode order.  A walk never reads the table, so
   committing late gives the table a per-instruction walk would.  One
   [recursive.discover] per callee per call, none for a committed entry:
   one in [res.funcs] that the current pass did not register (earlier
   passes' entries were removed).  Seeds are not "discovered" (their
   origin events come from the caller).  Only [extend] lists the
   committed spans in its delta. *)
let grow ~safe ~extending loaded res ~seeds =
  let prov_seen = if Prov.enabled () then Some (Itbl.create 64) else None in
  (* the walk asks at every instruction; [run] has nothing committed *)
  let any_committed = Hashtbl.length res.funcs > 0 in
  let decoded = { packed = [||]; n = 0 } in
  let walk () =
    let queue = Queue.create () in
    let registered = Itbl.create 64 in
    let is_start a =
      Itbl.mem registered a || (any_committed && Hashtbl.mem res.funcs a)
    in
    let register t =
      if (not (is_start t)) && Loaded.in_text loaded t then begin
        Itbl.replace registered t ();
        Queue.add t queue
      end
    in
    let committed t = Hashtbl.mem res.funcs t && not (Itbl.mem registered t) in
    let new_entries ~site t =
      (match prov_seen with
      | Some seen
        when Loaded.in_text loaded t && (not (Itbl.mem seen t)) && not (committed t)
        ->
          Itbl.replace seen t ();
          Prov.emit ~ev:"recursive.discover" ~addr:t [ ("site", Prov.I site) ]
      | _ -> ());
      register t
    in
    List.iter register seeds;
    decoded.n <- 0;
    let fresh = ref [] in
    while not (Queue.is_empty queue) do
      let e = Queue.pop queue in
      let f =
        disasm_function loaded ~safe ~noreturn:res.noreturn
          ~cond_noreturn:res.cond_noreturn ~is_start ~decoded ~new_entries e
      in
      Hashtbl.replace res.funcs e f;
      if extending then Obs.incr c_extend_funcs;
      fresh := f :: !fresh
    done;
    List.rev !fresh
  in
  let rec fixpoint i =
    let fresh = walk () in
    if
      safe && i < max_noreturn_iters
      && (Obs.incr c_noreturn_iters;
          learn_noreturn loaded res)
    then begin
      List.iter (fun f -> Hashtbl.remove res.funcs f.entry) fresh;
      fixpoint (i + 1)
    end
    else fresh
  in
  let new_funcs = fixpoint 0 in
  let new_spans = ref [] in
  for i = 0 to decoded.n - 1 do
    let p = decoded.packed.(i) in
    let lo = p lsr 8 and hi = (p lsr 8) + (p land 0xff) in
    if Insn_index.add res.insn_spans ~lo ~hi && extending then
      new_spans := (lo, hi) :: !new_spans
  done;
  { new_funcs; new_spans = List.rev !new_spans }

let run ?(safe = true) loaded ~seeds =
  Obs.span "recursive" @@ fun () ->
  let res =
    {
      funcs = Hashtbl.create 256;
      noreturn = Hashtbl.create 16;
      cond_noreturn = Hashtbl.create 4;
      insn_spans = Insn_index.create (Loaded.text_ranges loaded);
    }
  in
  ignore (grow ~safe ~extending:false loaded res ~seeds);
  res

(* Soundness precondition (guaranteed by xref validation for accepted
   pointers, see DESIGN.md "Incremental xref"): no committed function
   transfers control to a fresh seed, and no fresh function transfers
   into the committed extents other than by calling / tail-jumping a
   committed *entry*.  Under it the committed funcs, spans and noreturn
   facts are stable, so a re-walk only removes the pass's own entries. *)
let extend loaded res ~seeds =
  Obs.span "recursive.extend" @@ fun () ->
  Obs.incr c_extend_runs;
  grow ~safe:true ~extending:true loaded res ~seeds

(** Detected function starts, ascending. *)
let starts result =
  Hashtbl.fold (fun e _ acc -> e :: acc) result.funcs [] |> List.sort compare
