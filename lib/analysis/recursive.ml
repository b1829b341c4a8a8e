(** Recursive-descent disassembly engine: the "safe recursive disassembly"
    of §IV-C, which FETCH and the GHIDRA, ANGR and pattern-tool models all
    start from.

    Starting from a seed set of function entries (FDE starts, symbols), the
    engine follows intra-procedural control flow per function, adds targets
    of direct calls as new function entries, resolves bounds-checked jump
    tables, skips indirect calls, performs no tail-call guessing — a direct
    jump to a known function entry ends the block and is recorded as an
    outgoing jump — and runs a non-returning-function analysis to
    convergence so no block is placed after a call that cannot return.
    [run ~safe:false] drops both the table resolution and the noreturn
    analysis: the weaker engine of the BAP model. *)

open Fetch_x86
module Obs = Fetch_obs.Trace
module Prov = Fetch_obs.Provenance
module Insn_index = Fetch_util.Insn_index
module Itbl = Hashtbl.Make (Int)

(* Stage instrumentation (no-ops unless a Fetch_obs run is active). *)
let c_insns_decoded = Obs.counter "recursive.insns_decoded"
let c_funcs_disassembled = Obs.counter "recursive.functions_disassembled"
let c_tables_resolved = Obs.counter "recursive.jump_tables_resolved"
let c_worklist_rounds = Obs.counter "recursive.worklist_rounds"
let c_returns_checked = Obs.counter "recursive.returns_checked"
let c_replays = Obs.counter "recursive.replays"
let c_replay_checks = Obs.counter "recursive.replay_checks"
let c_extend_runs = Obs.counter "recursive.extend_runs"
let c_extend_funcs = Obs.counter "recursive.extend_funcs"
let h_block_insns = Obs.histogram "recursive.block_insns"

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
  let tbl = loaded.Loaded.table in
  let rec path_never_returns addr fuel =
    if fuel <= 0 then false
    else
      let s = Insn_table.find tbl addr in
      s >= 0
      &&
      let len = Insn_table.len tbl s in
      match (Insn_table.insn tbl s, Insn_table.flow tbl s) with
      | (Insn.Ud2 | Insn.Hlt), _ -> true
      | Insn.Syscall, _ -> path_never_returns (addr + len) fuel
      | _, Semantics.Fall -> path_never_returns (addr + len) (fuel - 1)
      | _, Semantics.Halt -> true
      | _, (Semantics.Ret | Semantics.Jump _ | Semantics.Cond _) -> false
      | _, Semantics.Callf _ -> false
  in
  match Loaded.insn_at loaded entry with
  | Some (Insn.Test (_, Reg.Rdi, Reg.Rdi), len) -> (
      match Loaded.insn_at loaded (entry + len) with
      | Some (Insn.Jcc (Insn.E, _), jlen) | Some (Insn.Jcc_short (Insn.E, _), jlen)
        ->
          path_never_returns (entry + len + jlen) 8
      | _ -> false)
  | _ -> false

(* The first argument at a call site, as far as §IV-C's backward slice
   can prove it: only a provably zero argument lets an [error]-style
   call return. *)
type first_arg = Zero | Nonzero | Unknown

let first_arg_step tbl s arg =
  match Insn_table.insn tbl s with
  | Insn.Mov (_, Insn.Reg Reg.Rdi, Insn.Imm 0)
  | Insn.Arith (Insn.Xor, _, Insn.Reg Reg.Rdi, Insn.Reg Reg.Rdi) ->
      Zero
  | Insn.Mov (_, Insn.Reg Reg.Rdi, Insn.Imm _) -> Nonzero
  | Insn.Call _ | Insn.Call_ind _ -> Unknown
  | _ -> if Insn_table.defs tbl s land Reg.bit Reg.Rdi <> 0 then Unknown else arg

(* The first argument after a block's instructions, given by address,
   newest first. *)
let block_first_arg tbl rev_addrs =
  List.fold_right
    (fun a arg -> first_arg_step tbl (Insn_table.find tbl a) arg)
    rev_addrs Unknown

let call_returns ~noreturn ~cond_noreturn arg_of x t =
  (not (Hashtbl.mem noreturn t))
  && ((not (Hashtbl.mem cond_noreturn t)) || arg_of x = Zero)

(* Decode one basic block starting at [addr]; returns the addresses of
   the decoded instructions, newest first, and the block's control-flow
   ending. *)
type block_end =
  | End_ret
  | End_halt
  | End_jump of Insn.t * int
  | End_cond of Insn.t * int * int  (** insn, taken target, fallthrough *)
  | End_indirect of Insn.operand
  | End_call_noreturn
  | End_fallthrough of int  (** ran into a known block/function start *)
  | End_error

(* [edge a] is told every address where the block stops without decoding
   an instruction, so a walk can list the start queries it made outside
   its own instructions. *)
let rec decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start ~edge
    ~block_known addr acc =
  if
    (addr <> f.entry && is_start addr) || (block_known addr && acc <> [])
  then begin
    edge addr;
    (acc, End_fallthrough addr)
  end
  else
    let tbl = loaded.Loaded.table in
    let s = Insn_table.find tbl addr in
    if s < 0 then begin
      edge addr;
      (acc, End_error)
    end
    else
      let insn = Insn_table.insn tbl s and len = Insn_table.len tbl s in
      Obs.incr c_insns_decoded;
      let acc' = addr :: acc in
      match Insn_table.flow tbl s with
      | Semantics.Fall ->
          decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start
            ~edge ~block_known (addr + len) acc'
      | Semantics.Ret ->
          f.has_ret <- true;
          (acc', End_ret)
      | Semantics.Halt -> (acc', End_halt)
      | Semantics.Jump (Semantics.Direct t) -> (acc', End_jump (insn, t))
      | Semantics.Jump (Semantics.Indirect op) -> (acc', End_indirect op)
      | Semantics.Cond t -> (acc', End_cond (insn, t, addr + len))
      | Semantics.Callf (Semantics.Direct t) ->
          f.calls <- (addr, t) :: f.calls;
          (* [acc]: the block so far, excluding the call itself *)
          let returns =
            (not safe)
            || call_returns ~noreturn ~cond_noreturn (block_first_arg tbl)
                 acc t
          in
          if returns then
            decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start
              ~edge ~block_known (addr + len) acc'
          else (acc', End_call_noreturn)
      | Semantics.Callf (Semantics.Indirect _) ->
          f.has_indirect_call <- true;
          decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start
            ~edge ~block_known (addr + len) acc'

(* Disassemble one function from [entry].  Each block is one run of
   instructions decoded back to back, from its [lo] to its [hi].
   Pending blocks carry the reversed instruction addresses of their
   fallthrough predecessor so jump-table slicing can look across block
   boundaries (the bounds check `cmp/ja` ends the block before the
   dispatch jump). *)
let disasm_function loaded ~safe ~noreturn ~cond_noreturn ~is_start ~edge
    ~new_entries entry =
  Obs.incr c_funcs_disassembled;
  let tbl = loaded.Loaded.table in
  let f = new_func entry in
  let visited = Itbl.create 16 in
  let pending = Queue.create () in
  Queue.add (entry, []) pending;
  let block_known a = Itbl.mem visited a in
  let leaves t =
    edge t;
    is_start t && t <> entry
  in
  while not (Queue.is_empty pending) do
    let b, inherited = Queue.pop pending in
    if not (Itbl.mem visited b) then begin
      Itbl.replace visited b ();
      let calls_before = f.calls in
      let rev_addrs, ending =
        decode_block loaded ~safe ~noreturn ~cond_noreturn ~f ~is_start ~edge
          ~block_known b []
      in
      if Obs.enabled () then Obs.observe h_block_insns (List.length rev_addrs);
      (match rev_addrs with
      | last :: _ ->
          let hi = last + Insn_table.len tbl (Insn_table.find tbl last) in
          f.blocks <- (b, hi) :: f.blocks
      | [] -> ());
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
      let window () = rev_addrs @ inherited in
      let add_block ?(window = []) t =
        if not (Itbl.mem visited t) then Queue.add (t, window) pending
      in
      let site = match rev_addrs with a :: _ -> a | [] -> b in
      match ending with
      | End_ret | End_halt | End_call_noreturn -> ()
      | End_error -> f.decode_error <- true
      | End_fallthrough t ->
          (* ran into an existing block of this function: fine; into another
             function's entry: record nothing (no tail-call guessing) *)
          if not (is_start t) then add_block ~window:(window ()) t
      | End_jump (insn, t) ->
          f.all_jump_sites <- (site, insn, t) :: f.all_jump_sites;
          if leaves t then f.out_jumps <- (site, insn, t) :: f.out_jumps
          else if Loaded.in_text loaded t then add_block t
          else f.out_jumps <- (site, insn, t) :: f.out_jumps
      | End_cond (insn, t, fall) ->
          f.all_jump_sites <- (site, insn, t) :: f.all_jump_sites;
          (if leaves t then f.out_jumps <- (site, insn, t) :: f.out_jumps
           else if Loaded.in_text loaded t then add_block t);
          (* the fallthrough block inherits the window across the branch *)
          add_block ~window:(window ()) fall
      | End_indirect op -> (
          if not safe then f.unresolved_indirect_jump <- true
          else
            let preceding =
              match window () with
              | _jmp :: preceding ->
                  List.map
                    (fun a ->
                      let s = Insn_table.find tbl a in
                      (a, Insn_table.len tbl s, Insn_table.insn tbl s))
                    preceding
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

let walk loaded ~noreturn ~cond_noreturn ~is_start ~on_call entry =
  disasm_function loaded ~safe:true ~noreturn ~cond_noreturn ~is_start
    ~edge:ignore
    ~new_entries:(fun ~site:_ t -> on_call t)
    entry

(* Call [fn lo hi] on each instruction of [f]'s blocks, in decode order,
   read back from the table. *)
let iter_insns loaded f fn =
  let tbl = loaded.Loaded.table in
  List.iter
    (fun (lo, hi) ->
      let rec go a =
        if a < hi then
          let s = Insn_table.find tbl a in
          if s >= 0 then begin
            let next = a + Insn_table.len tbl s in
            fn a next;
            go next
          end
      in
      go lo)
    (List.rev f.blocks)

(* Which functions reachable from [dirty] over tail jumps can return: the
   least set holding every function with a ret, an unresolved indirect
   jump or a decode error, and every function with a tail jump to a
   non-function or to a member.  A function's answer depends only on its
   forward tail-jump closure, so only that closure is visited. *)
let returns_of funcs dirty =
  let visited = Itbl.create 64 and jumpers = Itbl.create 16 in
  let returns = Itbl.create 64 and ready = Queue.create () in
  let grant e =
    if not (Itbl.mem returns e) then begin
      Itbl.replace returns e ();
      Queue.add e ready
    end
  in
  let todo = Stack.create () in
  List.iter (fun e -> Stack.push e todo) dirty;
  while not (Stack.is_empty todo) do
    let e = Stack.pop todo in
    if not (Itbl.mem visited e) then
      match Hashtbl.find_opt funcs e with
      | None -> ()
      | Some f ->
          Itbl.replace visited e ();
          Obs.incr c_returns_checked;
          if f.has_ret || f.unresolved_indirect_jump || f.decode_error then
            grant e;
          List.iter
            (fun (_, _, t) ->
              if Hashtbl.mem funcs t then begin
                Itbl.add jumpers t e;
                Stack.push t todo
              end
              else grant e)
            f.out_jumps
  done;
  while not (Queue.is_empty ready) do
    List.iter grant (Itbl.find_all jumpers (Queue.pop ready))
  done;
  returns

(* One walk of one function and what it read of the engine's state, kept
   so that a later round can reuse it instead of walking again. *)
type walked = {
  f : func;
  found : int array;  (** direct callees, first discovery order *)
  probes : int array;
      (** the start queries made outside the walk's own instructions
          (block stops, branch targets), each packed as [a lsl 1] plus 1
          when [a] was registered before the walk began *)
}

let probe a was = (a lsl 1) lor Bool.to_int was

type delta = { new_funcs : func list; new_spans : (int * int) list }

(* [now] is [old] with some entries left out, in the same order: the
   entries left out *)
let rec left_out old now =
  match (old, now) with
  | _, [] -> Some old
  | [], _ :: _ -> None
  | o :: os, n :: ns when o = n -> left_out os ns
  | o :: os, _ -> Option.map (List.cons o) (left_out os now)

(* The engine behind [run] and [extend]: a worklist that reaches the
   fixpoint of "walk every function reachable from [seeds] under the
   noreturn facts, learn the facts those walks imply" — the walks a
   from-scratch loop would make in its last pass, and every fact it
   would learn on the way.

   Round 0 walks breadth-first from the seeds, as that loop's first pass
   does: the registration order decides what each walk sees as a start
   (the entries registered before it, then its own callees, block by
   block).  Each round then learns facts only for the functions just
   walked and their reverse tail-jump closure, and re-walks only the
   live callers of the entries it flipped, each with the starts it saw
   before.  A re-walk cut short by a flipped call registers fewer
   callees.  A dropped callee that no live walk calls any more is
   retracted, with whatever it alone registered, and the functions that
   stopped at a retracted entry are walked again; the order of every
   other entry is unchanged, so no other walk can change.  A retracted
   function's walk is dropped, but its facts stay, as in the loop.
   Only when a dropped callee is still called (it moves to a later
   caller) or a re-walk registers a callee it did not before does the
   order itself move: the breadth-first order is then replayed from the
   first entry that moved, keeping every walk whose recorded start
   queries still get the same answers and whose instructions hold no
   registered entry.  A function is re-walked at most once per flipped
   callee, so a run costs O(call edges) walks; a replay costs one check
   per entry after the move.  Committed functions (an [extend]'s
   [res.funcs]) are starts for every walk and are never re-walked.  The
   last walks' instructions are committed to [res.insn_spans] in
   breadth-first order, first writer first.  One [recursive.discover]
   per callee per call, none for a committed entry; seeds are not
   "discovered" (their origin events come from the caller).  Only
   [extend] lists the committed spans in its delta. *)
let grow ~safe ~extending loaded res ~seeds =
  let prov_seen = if Prov.enabled () then Some (Itbl.create 64) else None in
  let walks : walked Itbl.t = Itbl.create 64 in
  (* the walk asks at every instruction; [run] has nothing committed *)
  let any_committed = Hashtbl.length res.funcs > 0 in
  let committed a =
    any_committed && (not (Itbl.mem walks a)) && Hashtbl.mem res.funcs a
  in
  (* the registration order: [order] lists the entries, [rank] numbers
     the live ones, and [views.(i)] is how many were registered when
     [order.(i)] was walked *)
  let order = ref [||] and views = ref [||] and n = ref 0 in
  let rank = Itbl.create 64 in
  (* [callers t]: the live walks that call [t] *)
  let callers = Itbl.create 64 in
  let callers_of t =
    match Itbl.find_opt callers t with
    | Some c -> c
    | None ->
        let c = Itbl.create 4 in
        Itbl.replace callers t c;
        c
  in
  let count t = Itbl.length (callers_of t) in
  (* [stops a]: the walks that stopped at [a], registered before them *)
  let stops = Itbl.create 16 and jumpers = Itbl.create 16 in
  let cond_memo = Itbl.create 64 and walked = ref [] and retracted = ref [] in
  (* registered before the walk of the [k]th entry began *)
  let before k a =
    committed a
    || match Itbl.find_opt rank a with Some r -> r < !views.(k) | None -> false
  in
  let walk ~is_start ~before ~register e =
    let probes = ref [] and found = ref [] and mine = Itbl.create 8 in
    let new_entries ~site t =
      (match prov_seen with
      | Some seen
        when Loaded.in_text loaded t && (not (Itbl.mem seen t)) && not (committed t)
        ->
          Itbl.replace seen t ();
          Prov.emit ~ev:"recursive.discover" ~addr:t [ ("site", Prov.I site) ]
      | _ -> ());
      if not (Itbl.mem mine t) then begin
        Itbl.replace mine t ();
        found := t :: !found
      end;
      if Loaded.in_text loaded t && not (is_start t) then register t
    in
    let f =
      disasm_function loaded ~safe ~noreturn:res.noreturn
        ~cond_noreturn:res.cond_noreturn ~is_start
        ~edge:(fun a -> probes := probe a (before a) :: !probes)
        ~new_entries e
    in
    let w =
      {
        f;
        found = Array.of_list (List.rev !found);
        probes = Array.of_list !probes;
      }
    in
    (match Itbl.find_opt walks e with
    | Some old ->
        Array.iter
          (fun t -> if not (Itbl.mem mine t) then Itbl.remove (callers_of t) e)
          old.found
    | None -> ());
    Array.iter (fun t -> Itbl.replace (callers_of t) e ()) w.found;
    Array.iter (fun p -> if p land 1 = 1 then Itbl.add stops (p asr 1) e) w.probes;
    Itbl.replace walks e w;
    walked := e :: !walked;
    Hashtbl.replace res.funcs e f;
    List.iter (fun (_, _, t) -> Itbl.add jumpers t e) f.out_jumps;
    if extending then Obs.incr c_extend_funcs;
    w
  in
  let register t =
    if Loaded.in_text loaded t && (not (committed t)) && not (Itbl.mem rank t)
    then begin
      if !n = Array.length !order then begin
        let grow a =
          let bigger = Array.make (max 64 (2 * !n)) 0 in
          Array.blit a 0 bigger 0 !n;
          bigger
        in
        order := grow !order;
        views := grow !views
      end;
      !order.(!n) <- t;
      Itbl.replace rank t !n;
      incr n
    end
  in
  (* a kept walk of [e] is what walking again would give when every
     start query it made gets the same answer: the ones outside its
     instructions as recorded, and no registered entry but [e] at one of
     its instructions.  Its callees' facts hold: the callers of every
     flipped entry were walked again in that round, and a retracted
     function's walk is dropped. *)
  let is_registered a = committed a || Itbl.mem rank a in
  let reusable w e =
    Obs.incr c_replay_checks;
    Array.for_all (fun p -> probe (p asr 1) (is_registered (p asr 1)) = p) w.probes
    &&
    let clear = ref true in
    iter_insns loaded w.f (fun a _ -> if a <> e && is_registered a then clear := false);
    !clear
  in
  (* the breadth-first order from the [from]th walk on, the walks before
     it and what they registered unchanged; [keep] reuses every kept
     walk that still holds *)
  let bfs ~keep ~from =
    let base = if from = 0 then 0 else !views.(from) in
    for i = base to !n - 1 do
      Itbl.remove rank !order.(i)
    done;
    n := base;
    if from = 0 then List.iter register seeds;
    let i = ref from in
    while !i < !n do
      let k = !i and e = !order.(!i) in
      incr i;
      (* a retracted entry leaves a hole *)
      if Itbl.find_opt rank e = Some k then begin
        !views.(k) <- !n;
        match Itbl.find_opt walks e with
        | Some w when keep && reusable w e ->
            Hashtbl.replace res.funcs e w.f;
            Array.iter register w.found
        | _ ->
            ignore
              (walk ~is_start:is_registered ~before:(before k) ~register e)
      end
    done
  in
  let live () =
    List.filter_map
      (fun i ->
        let e = !order.(i) in
        if Itbl.find_opt rank e = Some i then Some e else None)
      (List.init !n Fun.id)
  in
  let by_rank es =
    List.sort (fun a b -> compare (Itbl.find rank a) (Itbl.find rank b)) es
  in
  (* the callees a walk registers: its text callees not registered
     before it *)
  let registers ~before found =
    List.filter
      (fun t -> Loaded.in_text loaded t && not (before t))
      (Array.to_list found)
  in
  (* walk [e] again with the starts it saw; [Some (old, now)] when it
     now registers other callees than before *)
  let rewalk e =
    let before = before (Itbl.find rank e) in
    let own = Itbl.create 8 in
    let old = (Itbl.find walks e).found in
    let w =
      walk
        ~is_start:(fun a -> before a || Itbl.mem own a)
        ~before
        ~register:(fun t -> Itbl.replace own t ())
        e
    in
    let old = registers ~before old and now = registers ~before w.found in
    if old = now then None else Some (old, now)
  in
  (* walk each of [es] again, in registration order: the changes *)
  let rewalk_all es =
    List.filter_map
      (fun e -> Option.map (fun c -> (e, c)) (rewalk e))
      (by_rank (Itbl.fold (fun e () acc -> e :: acc) es []))
  in
  (* drop a function's walk: its calls, its entry, its result *)
  let forget x =
    Array.iter (fun t -> Itbl.remove (callers_of t) x) (Itbl.find walks x).found;
    Itbl.remove walks x;
    Itbl.remove rank x;
    Hashtbl.remove res.funcs x;
    retracted := x :: !retracted
  in
  let exception Moved of int in
  (* settle a round's [changes] while the order holds: retract each
     callee left out that no live walk calls any more, and in turn what
     it registered, then walk again the functions that stopped at a
     retracted entry, and settle their changes.  [Moved k] when the
     order moves from the [k]th walk on: a callee left out is still
     called, or a re-walk registers a callee it did not before. *)
  let rec prune k changes =
    let k = List.fold_left (fun k (e, _) -> min k (Itbl.find rank e)) k changes in
    let dropped = Queue.create () and waiting = ref [] and gone = ref [] in
    List.iter
      (fun (_, (old, now)) ->
        match left_out old now with
        | Some out -> List.iter (fun t -> Queue.add t dropped) out
        | None -> raise (Moved k))
      changes;
    (* a callee still called may lose its last caller to a later
       retraction: it waits until the queue is empty *)
    let rec drain () =
      while not (Queue.is_empty dropped) do
        let x = Queue.pop dropped in
        if Itbl.mem rank x then
          if count x > 0 then waiting := x :: !waiting
          else begin
            let regs =
              registers ~before:(before (Itbl.find rank x)) (Itbl.find walks x).found
            in
            forget x;
            gone := x :: !gone;
            List.iter (fun t -> Queue.add t dropped) regs
          end
      done;
      match List.filter (fun x -> Itbl.mem rank x && count x = 0) !waiting with
      | [] -> ()
      | ready ->
          List.iter (fun x -> Queue.add x dropped) ready;
          drain ()
    in
    drain ();
    if List.exists (fun x -> Itbl.mem rank x) !waiting then raise (Moved k);
    let stopped = Itbl.create 8 in
    List.iter
      (fun x ->
        List.iter
          (fun e ->
            if Itbl.mem rank e && Array.mem (probe x true) (Itbl.find walks e).probes
            then Itbl.replace stopped e ())
          (Itbl.find_all stops x))
      !gone;
    match rewalk_all stopped with [] -> () | changes -> prune k changes
  in
  let replay from =
    Obs.incr c_replays;
    let was = live () in
    bfs ~keep:true ~from;
    List.iter (fun e -> if not (Itbl.mem rank e) then forget e) was
  in
  (* the live functions whose return status may have moved: [roots] and
     everything that tail-jumps to them, transitively *)
  let dirty_of roots =
    let mark = Itbl.create 16 and out = ref [] and todo = Stack.create () in
    List.iter (fun e -> Stack.push e todo) roots;
    while not (Stack.is_empty todo) do
      let e = Stack.pop todo in
      if not (Itbl.mem mark e) then begin
        Itbl.replace mark e ();
        if Itbl.mem rank e then out := e :: !out;
        List.iter (fun j -> Stack.push j todo) (Itbl.find_all jumpers e)
      end
    done;
    !out
  in
  let cond e =
    match Itbl.find_opt cond_memo e with
    | Some b -> b
    | None ->
        let b = detect_cond_noreturn loaded e in
        Itbl.replace cond_memo e b;
        b
  in
  (* the facts [dirty]'s walks imply: a function that cannot return is
     noreturn unless it is [error]-style, one that can and is
     [error]-style is conditionally noreturn *)
  let learn dirty =
    Obs.incr c_worklist_rounds;
    let returns = returns_of res.funcs dirty in
    let learned = ref [] in
    let fact tbl e =
      Hashtbl.replace tbl e ();
      learned := e :: !learned
    in
    List.iter
      (fun e ->
        if
          (not (Itbl.mem returns e))
          && (not (cond e))
          && not (Hashtbl.mem res.noreturn e)
        then fact res.noreturn e)
      dirty;
    List.iter
      (fun e ->
        if
          Itbl.mem returns e
          && (not (Hashtbl.mem res.cond_noreturn e))
          && cond e
        then fact res.cond_noreturn e)
      dirty;
    !learned
  in
  let rec fixpoint dirty =
    match learn dirty with
    | [] -> ()
    | flipped ->
        walked := [];
        retracted := [];
        let stale = Itbl.create 16 in
        List.iter
          (fun t -> Itbl.iter (fun c () -> Itbl.replace stale c ()) (callers_of t))
          flipped;
        (match rewalk_all stale with
        | [] -> ()
        | changes -> ( try prune max_int changes with Moved k -> replay k));
        fixpoint (dirty_of (List.rev_append !walked !retracted))
  in
  bfs ~keep:false ~from:0;
  if safe then fixpoint (live ());
  let new_spans = ref [] in
  List.iter
    (fun e ->
      iter_insns loaded (Itbl.find walks e).f (fun lo hi ->
          if Insn_index.add res.insn_spans ~lo ~hi && extending then
            new_spans := (lo, hi) :: !new_spans))
    (live ());
  {
    new_funcs = List.map (fun e -> (Itbl.find walks e).f) (live ());
    new_spans = List.rev !new_spans;
  }

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
   facts are stable, so the worklist only walks, re-walks and retracts
   the call's own functions. *)
let extend loaded res ~seeds =
  Obs.span "recursive.extend" @@ fun () ->
  Obs.incr c_extend_runs;
  grow ~safe:true ~extending:true loaded res ~seeds

(** Detected function starts, ascending. *)
let starts result =
  Hashtbl.fold (fun e _ acc -> e :: acc) result.funcs [] |> List.sort compare
