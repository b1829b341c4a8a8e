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
let c_extend_runs = Obs.counter "recursive.extend_runs"
let c_extend_funcs = Obs.counter "recursive.extend_funcs"
let h_block_insns = Obs.histogram "recursive.block_insns"

type func = {
  entry : int;
  mutable blocks : (int * int) list;  (** decoded [lo, hi) ranges *)
  mutable calls : (int * int) list;  (** call site, direct target *)
  mutable out_jumps : (int * int) list;
      (** direct jumps leaving the function: site, target *)
  mutable all_jump_sites : (int * int) list;
      (** every direct/conditional jump with its target (incl. intra) *)
  mutable table_targets : (int * int list) list;  (** resolved jump tables *)
  mutable unresolved_indirect_jump : bool;
  mutable has_ret : bool;
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
    decode_error = false;
  }

module Bt = Block_table

(* A set of addresses with no instruction, which have no block to stamp.
   Few walks meet one, so the table is made on the first. *)
type odd = unit Itbl.t option ref

let odd_mem (o : odd) a = match !o with Some t -> Itbl.mem t a | None -> false

let odd_add (o : odd) a =
  match !o with
  | Some t -> Itbl.replace t a ()
  | None ->
      let t = Itbl.create 16 in
      Itbl.replace t a ();
      o := Some t

(* The nonzero path of an [error]-style function never returns: from
   [a] it runs straight into a halt (ud2, hlt or int3), through at most
   seven instructions other than syscalls, with no call, branch or
   decode error on the way. *)
let never_returns loaded a =
  let bt = loaded.Loaded.blocks and tbl = loaded.Loaded.table in
  (* [n] plus the instructions of block [k] other than syscalls, from its
     [i]th at [a] on, counted up to nine *)
  let rec others k a i n =
    if i = Bt.insns bt k || n > 8 then n
    else
      let s = Insn_table.find tbl a in
      others k (a + Insn_table.len tbl s) (i + 1)
        (if Insn_table.insn tbl s = Insn.Syscall then n else n + 1)
  in
  let rec go a n =
    let k = Bt.start bt a in
    k >= 0
    && (not (Bt.has_indirect_call bt k))
    &&
    let n = others k a 0 n in
    match Bt.kind bt k with
    | Bt.Fall -> n <= 7 && go (Bt.hi bt k) n
    | Bt.Halt -> n <= 8
    | Bt.Ret | Bt.Jump | Bt.Cond | Bt.Jump_ind | Bt.Call -> false
  in
  go a 0

(* Identify [error]-style conditionally non-returning functions: the entry
   tests the first argument, branches to the returning path on zero, and
   the nonzero (fallthrough) path provably never returns — it runs
   straight into an exit syscall or a trap. *)
let detect_cond_noreturn loaded entry =
  match Loaded.insn_at loaded entry with
  | Some (Insn.Test (_, Reg.Rdi, Reg.Rdi), len) -> (
      match Loaded.insn_at loaded (entry + len) with
      | Some (Insn.Jcc (Insn.E, _), jlen) | Some (Insn.Jcc_short (Insn.E, _), jlen)
        ->
          never_returns loaded (entry + len + jlen)
      | _ -> false)
  | _ -> false

type first_arg = Bt.first_arg = Zero | Nonzero | Unknown

let first_arg_step = Bt.first_arg_step

let call_returns ~noreturn ~cond_noreturn arg t =
  (not (Hashtbl.mem noreturn t))
  && ((not (Hashtbl.mem cond_noreturn t)) || arg = Zero)

(* The last [Jump_table.window] instructions of [\[from, upto)], which
   run back to back, as (address, length, instruction), newest first. *)
let window_before tbl from upto =
  let next a = a + Insn_table.len tbl (Insn_table.find tbl a) in
  let rec count a n = if a >= upto then n else count (next a) (n + 1) in
  let rec skip a k = if k <= 0 then a else skip (next a) (k - 1) in
  let rec go a acc =
    if a >= upto then acc
    else
      let s = Insn_table.find tbl a in
      go (next a) ((a, Insn_table.len tbl s, Insn_table.insn tbl s) :: acc)
  in
  go (skip from (count from 0 - Jump_table.window)) []

(* Disassemble one function from [entry], block by cached block.  Each
   of [f.blocks] is one run of instructions decoded back to back, from a
   queued address [b] to where the run stops; a run steps whole cached
   blocks, and it stops only where a cached block begins, so every
   address that [is_start] holds must already start a cached block
   ([Block_table.start]).  A run also stops where a run of this walk
   began, and the queue may hold an address more than once: a run can
   cross an address queued before it is dequeued, and then that address
   starts a run of its own, which overlaps it.

   The first argument is carried across a run's blocks; it is read only
   at a call to an [error]-style callee.  A run queued as a conditional
   fallthrough inherits the jump-table window of its predecessor: since
   a run ends where its successor starts, the window is the contiguous
   stretch from the first run of the chain to the dispatch jump, read
   back from the table only when an indirect jump is reached (the bounds
   check [cmp/ja] ends a block before the dispatch).

   [edge a] is told every address where the walk stops without decoding
   an instruction: a run that runs into a start or fails to decode, or
   a jump that leaves the function.  With the walk's own instructions,
   these are all the start queries that shaped it. *)
let disasm_function loaded ~safe ~noreturn ~cond_noreturn ~is_start ~edge
    ~new_entries entry =
  Obs.incr c_funcs_disassembled;
  let tbl = loaded.Loaded.table and bt = loaded.Loaded.blocks in
  let f = new_func entry in
  (* visited addresses with no instruction *)
  let odd : odd = ref None in
  let traced = Obs.enabled () in
  (* the run under way: where it began, where its window begins, and the
     calls known before it *)
  let b = ref entry and win = ref entry and calls_before = ref [] in
  (* instructions stepped, added to [recursive.insns_decoded] at the end *)
  let stepped = ref 0 in
  let leaves t =
    let out = is_start t && t <> entry in
    if out then edge t;
    out
  in
  (* the run's end: where it stopped, after [n] instructions *)
  let close hi n =
    if traced then Obs.observe h_block_insns n;
    if n > 0 then f.blocks <- (!b, hi) :: f.blocks;
    (* register the callees this run discovered, newest first — the
       calls of earlier runs are already known *)
    let rec register_new calls =
      if calls != !calls_before then
        match calls with
        | (site, t) :: rest ->
            new_entries ~site t;
            register_new rest
        | [] -> ()
    in
    register_new f.calls
  in
  let add_block t = Bt.push bt t t in
  let jump site t =
    let j = (site, t) in
    f.all_jump_sites <- j :: f.all_jump_sites;
    j
  in
  (* go on at [a] with first argument [arg], after [n] instructions *)
  let rec next a arg n =
    if a <> entry && is_start a then begin
      edge a;
      close a n
    end
    else
      let k = Bt.start bt a in
      if k >= 0 && not (Bt.visited bt k) then run k arg n
      else begin
        edge a;
        if k < 0 && not (odd_mem odd a) then f.decode_error <- true;
        close a n
      end
  and run k arg n =
    (* read the whole block first: [close] registers callees, and a
       callee inside this block splits it *)
    let m = Bt.insns bt k in
    stepped := !stepped + m;
    let n = n + m and hi = Bt.hi bt k and site = Bt.last bt k in
    match Bt.kind bt k with
    | Bt.Fall -> next hi (Bt.arg_after bt k arg) n
    | Bt.Call ->
        let t = Bt.target bt k in
        f.calls <- (site, t) :: f.calls;
        if
          (not safe)
          || call_returns ~noreturn ~cond_noreturn (Bt.arg_after bt k arg) t
        then next hi Unknown n
        else close hi n
    | Bt.Ret ->
        f.has_ret <- true;
        close hi n
    | Bt.Halt -> close hi n
    | Bt.Jump ->
        let t = Bt.target bt k in
        close hi n;
        let j = jump site t in
        if leaves t then f.out_jumps <- j :: f.out_jumps
        else if Loaded.in_text loaded t then add_block t
        else f.out_jumps <- j :: f.out_jumps
    | Bt.Cond ->
        let t = Bt.target bt k in
        close hi n;
        let j = jump site t in
        (if leaves t then f.out_jumps <- j :: f.out_jumps
         else if Loaded.in_text loaded t then add_block t);
        (* the fallthrough run inherits the window across the branch *)
        Bt.push bt hi !win
    | Bt.Jump_ind -> (
        close hi n;
        if not safe then f.unresolved_indirect_jump <- true
        else
          let op =
            match Insn_table.flow tbl (Insn_table.find tbl site) with
            | Semantics.Jump (Semantics.Indirect op) -> op
            | _ -> assert false
          in
          match
            Jump_table.resolve loaded.Loaded.image ~preceding:(window_before tbl !win site) op
          with
          | Some { Jump_table.table_addr; targets } ->
              Obs.incr c_tables_resolved;
              f.table_targets <- (table_addr, targets) :: f.table_targets;
              List.iter add_block (List.sort_uniq compare targets)
          | None -> f.unresolved_indirect_jump <- true)
  in
  Bt.begin_walk bt;
  Bt.push bt entry entry;
  while not (Bt.is_empty bt) do
    let a = Bt.pop bt in
    let k = Bt.start bt a in
    if not (if k >= 0 then Bt.visited bt k else odd_mem odd a) then begin
      if k >= 0 then Bt.visit bt k else odd_add odd a;
      b := a;
      win := Bt.popped_with bt;
      calls_before := f.calls;
      if a <> entry && is_start a then begin
        edge a;
        close a 0
      end
      else if k < 0 then begin
        edge a;
        f.decode_error <- true;
        close a 0
      end
      else run k Unknown 0
    end
  done;
  Obs.add c_insns_decoded !stepped;
  f

let walk ?(safe = true) loaded ~noreturn ~cond_noreturn ~starts entry =
  let bt = loaded.Loaded.blocks in
  Hashtbl.iter (fun a () -> ignore (Bt.start bt a)) starts;
  disasm_function loaded ~safe ~noreturn ~cond_noreturn
    ~is_start:(Hashtbl.mem starts) ~edge:ignore
    ~new_entries:(fun ~site:_ t -> ignore (Bt.start bt t))
    entry

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
            (fun (_, t) ->
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

(* One walk of one function: the engine's record of it, its direct text
   callees outside the committed functions (first discovery order), and
   the addresses where it stopped without decoding. *)
type walk = { f : func; callees : int list; edges : int list }

type delta = { new_funcs : func list; new_spans : (int * int) list }

(* First index of the sorted array [a] holding a value >= [x]. *)
let lower_bound a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* Does [p] hold for an [x] of the sorted array [a] that [w] may have
   asked about: one inside its blocks, or one where it stopped? *)
let exists_asked a w p =
  let n = Array.length a in
  let rec from i hi = i < n && a.(i) < hi && (p a.(i) || from (i + 1) hi) in
  n > 0
  && (List.exists (fun (lo, hi) -> from (lower_bound a lo) hi) w.f.blocks
     || List.exists
          (fun x ->
            let i = lower_bound a x in
            i < n && a.(i) = x && p x)
          w.edges)

(* The elements of [a] not in [b], both ascending. *)
let rec minus a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | x :: a', y :: b' ->
      if x < y then x :: minus a' b else if x > y then minus a b' else minus a' b'

(* The engine behind [run] and [extend]: the noreturn fixpoint of
   DESIGN.md, kept incrementally.  A discovery walk stops only at seeds
   and committed entries, so it depends on the facts alone; the entries
   are the seeds and every text callee the discovery walks reach from
   them.  An entry's body is its walk that stops at every entry.  Facts
   are learned from the bodies until none is, and a fact learned in this
   call for an entry that did not stay is dropped.

   A round walks again only the discovery callers of each flipped entry.
   An entry that lost a discovery caller stays only while a seed reaches
   it, which trial deletion over what it reaches settles.  A discovery
   walk that asked about no other non-seed entry is its entry's body
   too; a body walked apart is walked again when one of its callees
   flips or an entry it asked about is retracted.  Return status is
   re-derived only for the bodies that changed and whatever tail-jumps
   to them.  Committed functions (an [extend]'s [res.funcs]) are starts
   for every walk and are never walked.  The spans are committed in
   ascending entry order, first writer first.  One [recursive.discover]
   per text callee per call, none for a committed entry. *)
let grow ~safe ~extending loaded res ~seeds =
  let prov_seen = if Prov.enabled () then Some (Itbl.create 64) else None in
  (* the entries with their discovery walks, and the bodies walked apart *)
  let disc : walk Itbl.t = Itbl.create 64 and apart : walk Itbl.t = Itbl.create 16 in
  let body e = match Itbl.find_opt apart e with Some w -> w | None -> Itbl.find disc e in
  (* the walk asks at every instruction; [run] has nothing committed *)
  let any_committed = Hashtbl.length res.funcs > 0 in
  let committed a =
    any_committed && Hashtbl.mem res.funcs a && not (Itbl.mem disc a)
  in
  (* what this call may make an entry: a text address, not a committed one *)
  let in_scope t = Loaded.in_text loaded t && not (committed t) in
  (* every start a walk asks about must start a cached block: the seeds,
     and each entry, whose own walk begins there; a committed entry began
     a walk of the call that committed it, and a start stays one *)
  let bt = loaded.Loaded.blocks in
  let seed = Itbl.create 16 in
  List.iter
    (fun s ->
      if in_scope s then begin
        Itbl.replace seed s ();
        ignore (Bt.start bt s)
      end)
    seeds;
  let walk ~is_start e =
    let callees = ref [] and odd : odd = ref None and edges = ref [] in
    (* first call to [t] in this walk? *)
    let first t =
      let k = Bt.start bt t in
      if k >= 0 then not (Bt.called bt k) && (Bt.call bt k; true)
      else not (odd_mem odd t) && (odd_add odd t; true)
    in
    let new_entries ~site t =
      if in_scope t && first t then begin
        callees := t :: !callees;
        match prov_seen with
        | Some seen when not (Itbl.mem seen t) ->
            Itbl.replace seen t ();
            Prov.emit ~ev:"recursive.discover" ~addr:t [ ("site", Prov.I site) ]
        | _ -> ()
      end
    in
    let f =
      disasm_function loaded ~safe ~noreturn:res.noreturn
        ~cond_noreturn:res.cond_noreturn ~is_start
        ~edge:(fun a -> edges := a :: !edges)
        ~new_entries e
    in
    if extending then Obs.incr c_extend_funcs;
    { f; callees = List.rev !callees; edges = !edges }
  in
  let discovery = walk ~is_start:(fun a -> Itbl.mem seed a || committed a) in
  (* [callers t]: the entries whose discovery walk calls [t] *)
  let callers = Itbl.create 64 in
  let link e w =
    List.iter
      (fun t ->
        match Itbl.find_opt callers t with
        | Some c -> Itbl.replace c e ()
        | None ->
            let c = Itbl.create 4 in
            Itbl.replace c e ();
            Itbl.replace callers t c)
      w.callees
  in
  let unlink e t = Option.iter (fun c -> Itbl.remove c e) (Itbl.find_opt callers t) in
  (* the entries added since the bodies were last settled, and the
     entries that lost a discovery caller *)
  let fresh = ref [] and dropped = Queue.create () in
  (* make [ts] entries, and what their discovery walks reach, breadth-first *)
  let add ts =
    let q = Queue.of_seq (List.to_seq ts) in
    while not (Queue.is_empty q) do
      let e = Queue.pop q in
      if in_scope e && not (Itbl.mem disc e) then begin
        let w = discovery e in
        Itbl.replace disc e w;
        fresh := e :: !fresh;
        link e w;
        List.iter (fun t -> Queue.add t q) w.callees
      end
    done
  in
  let rediscover e =
    let old = Itbl.find disc e in
    let w = discovery e in
    Itbl.replace disc e w;
    List.iter
      (fun t ->
        unlink e t;
        Queue.add t dropped)
      (minus (List.sort Int.compare old.callees) (List.sort Int.compare w.callees));
    link e w;
    add w.callees
  in
  let retracted = ref [] in
  let retract y =
    List.iter
      (fun t ->
        unlink y t;
        Queue.add t dropped)
      (Itbl.find disc y).callees;
    Itbl.remove disc y;
    Itbl.remove apart y;
    Hashtbl.remove res.funcs y;
    retracted := y :: !retracted
  in
  (* trial deletion: of the non-seed entries a dropped entry reaches,
     those reached from a caller outside them stay, the rest go *)
  let settle () =
    while not (Queue.is_empty dropped) do
      let x = Queue.pop dropped in
      if Itbl.mem disc x && not (Itbl.mem seed x) then begin
        let reach = Itbl.create 8 and todo = Stack.create () in
        Stack.push x todo;
        while not (Stack.is_empty todo) do
          let y = Stack.pop todo in
          if Itbl.mem disc y && (not (Itbl.mem seed y)) && not (Itbl.mem reach y)
          then begin
            Itbl.replace reach y false;
            List.iter (fun t -> Stack.push t todo) (Itbl.find disc y).callees
          end
        done;
        let members = List.sort Int.compare (Itbl.fold (fun y _ acc -> y :: acc) reach []) in
        let live y =
          if not (Itbl.find reach y) then begin
            Itbl.replace reach y true;
            Stack.push y todo
          end
        in
        List.iter
          (fun y ->
            match Itbl.find_opt callers y with
            | Some c when Itbl.fold (fun c () b -> b || not (Itbl.mem reach c)) c false ->
                live y
            | _ -> ())
          members;
        while not (Stack.is_empty todo) do
          List.iter
            (fun t -> if Itbl.find_opt reach t = Some false then live t)
            (Itbl.find disc (Stack.pop todo)).callees
        done;
        List.iter (fun y -> if not (Itbl.find reach y) then retract y) members
      end
    done
  in
  let keys tbl = List.sort Int.compare (Itbl.fold (fun e _ acc -> e :: acc) tbl []) in
  (* the non-seed entries, ascending; retracted ones may linger *)
  let others = ref [||] in
  let non_seeds es = Array.of_list (List.filter (fun e -> not (Itbl.mem seed e)) es) in
  let asks a e w = exists_asked a w (fun x -> x <> e && Itbl.mem disc x) in
  (* [watch x]: the bodies walked apart that call or asked about [x];
     [jumpers t]: the bodies that tail-jump to [t] *)
  let watch = Itbl.create 16 and jumpers = Itbl.create 64 and changed = ref [] in
  let set_body e =
    let d = Itbl.find disc e in
    let w =
      if not (asks !others e d) then begin
        Itbl.remove apart e;
        d
      end
      else begin
        let w = walk ~is_start:(fun a -> Itbl.mem disc a || committed a) e in
        Itbl.replace apart e w;
        List.iter (fun t -> Itbl.add watch t e) w.callees;
        ignore
          (exists_asked !others w (fun x ->
               if x <> e && Itbl.mem disc x then Itbl.add watch x e;
               false));
        w
      end
    in
    Hashtbl.replace res.funcs e w.f;
    List.iter (fun (_, t) -> Itbl.add jumpers t e) w.f.out_jumps;
    changed := e :: !changed
  in
  (* settle the entries and the bodies once [flipped] are facts: the
     entries whose body changed, and the ones retracted *)
  let step flipped =
    changed := [];
    retracted := [];
    let stale = Itbl.create 16 in
    List.iter
      (fun t ->
        Option.iter (Itbl.iter (fun e () -> Itbl.replace stale e ())) (Itbl.find_opt callers t))
      flipped;
    let stale = keys stale in
    List.iter rediscover stale;
    settle ();
    let redo = Itbl.create 16 in
    let mark e = if Itbl.mem disc e then Itbl.replace redo e () in
    List.iter mark stale;
    let watchers x still =
      List.iter
        (fun e -> match Itbl.find_opt apart e with Some w when still w -> mark e | _ -> ())
        (Itbl.find_all watch x)
    in
    List.iter (fun t -> watchers t (fun w -> List.mem t w.callees)) flipped;
    List.iter (fun x -> watchers x (fun w -> exists_asked [| x |] w (fun _ -> true))) !retracted;
    if !fresh <> [] then begin
      (* after the first round, a body that asked about a new entry now
         stops there *)
      let a = non_seeds (List.sort Int.compare !fresh) in
      if flipped <> [] then
        Itbl.iter (fun e _ -> if asks a e (body e) then mark e) disc;
      List.iter mark !fresh;
      fresh := [];
      others :=
        Array.of_list
          (List.sort Int.compare
             (Itbl.fold (fun e _ acc -> if Itbl.mem seed e then acc else e :: acc) disc []))
    end;
    List.iter set_body (keys redo);
    List.rev_append !changed !retracted
  in
  (* the entries whose return status may have moved: [roots] and every
     body that tail-jumps to them, transitively *)
  let dirty_of roots =
    let mark = Itbl.create 16 and out = ref [] and todo = Stack.create () in
    List.iter (fun e -> Stack.push e todo) roots;
    while not (Stack.is_empty todo) do
      let e = Stack.pop todo in
      if not (Itbl.mem mark e) then begin
        Itbl.replace mark e ();
        if Itbl.mem disc e then out := e :: !out;
        List.iter (fun j -> Stack.push j todo) (Itbl.find_all jumpers e)
      end
    done;
    !out
  in
  let cond_memo = Itbl.create 64 and learned = ref [] in
  let cond e =
    match Itbl.find_opt cond_memo e with
    | Some b -> b
    | None ->
        let b = detect_cond_noreturn loaded e in
        Itbl.replace cond_memo e b;
        b
  in
  (* the facts [dirty]'s bodies imply: a function that cannot return is
     noreturn unless it is [error]-style, one that can and is
     [error]-style is conditionally noreturn *)
  let learn dirty =
    Obs.incr c_worklist_rounds;
    let returns = returns_of res.funcs dirty and flipped = ref [] in
    List.iter
      (fun e ->
        let tbl = if Itbl.mem returns e then res.cond_noreturn else res.noreturn in
        if (not (Hashtbl.mem tbl e)) && cond e = Itbl.mem returns e then begin
          Hashtbl.replace tbl e ();
          flipped := e :: !flipped
        end)
      dirty;
    learned := List.rev_append !flipped !learned;
    !flipped
  in
  let rec fixpoint dirty =
    match learn dirty with [] -> () | flipped -> fixpoint (dirty_of (step flipped))
  in
  add seeds;
  (* the first round's bodies are all the entries *)
  let first = step [] in
  if safe then fixpoint first;
  List.iter
    (fun e ->
      if not (Itbl.mem disc e) then begin
        Hashtbl.remove res.noreturn e;
        Hashtbl.remove res.cond_noreturn e
      end)
    !learned;
  let bodies = List.map (fun e -> (body e).f) (keys disc) and new_spans = ref [] in
  (* the instructions of run [\[a, hi)], back to back *)
  let tbl = loaded.Loaded.table in
  let rec commit a hi =
    if a < hi then begin
      let next = a + Insn_table.len tbl (Insn_table.find tbl a) in
      if Insn_index.add res.insn_spans ~lo:a ~hi:next && extending then
        new_spans := (a, next) :: !new_spans;
      commit next hi
    end
  in
  List.iter (fun f -> List.iter (fun (lo, hi) -> commit lo hi) (List.rev f.blocks)) bodies;
  { new_funcs = bodies; new_spans = List.rev !new_spans }

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
   facts are stable, so the fixpoint only walks and retracts the call's
   own functions.  A seed inside the committed instructions breaks it
   and is refused. *)
let extend loaded res ~seeds =
  List.iter
    (fun s ->
      if Insn_index.mem res.insn_spans s && not (Hashtbl.mem res.funcs s) then
        invalid_arg
          (Printf.sprintf "Recursive.extend: seed %#x lies inside committed instructions" s))
    seeds;
  Obs.span "recursive.extend" @@ fun () ->
  Obs.incr c_extend_runs;
  grow ~safe:true ~extending:true loaded res ~seeds

(** Detected function starts, ascending. *)
let starts result =
  Hashtbl.fold (fun e _ acc -> e :: acc) result.funcs [] |> List.sort Int.compare
