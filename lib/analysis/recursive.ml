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

(* [edge a] is told every address where the walk stops without decoding
   an instruction: a block that runs into a start or fails to decode, or
   a jump that leaves the function.  With the walk's own instructions,
   these are all the start queries that shaped it. *)
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
    let out = is_start t && t <> entry in
    if out then edge t;
    out
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
  let seed = Itbl.create 16 in
  List.iter (fun s -> if in_scope s then Itbl.replace seed s ()) seeds;
  let walk ~is_start e =
    let callees = ref [] and mine = Itbl.create 8 and edges = ref [] in
    let new_entries ~site t =
      if in_scope t && not (Itbl.mem mine t) then begin
        Itbl.replace mine t ();
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
    List.iter (fun (_, _, t) -> Itbl.add jumpers t e) w.f.out_jumps;
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
      others := non_seeds (keys disc)
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
  List.iter
    (fun f ->
      iter_insns loaded f (fun lo hi ->
          if Insn_index.add res.insn_spans ~lo ~hi && extending then
            new_spans := (lo, hi) :: !new_spans))
    bodies;
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
