(** Shared forward worklist dataflow engine — see the interface for the
    design.  A walk steps cached blocks: a block's body in O(1) through
    the lattice's summary when nothing in it can end the walk, one
    instruction at a time otherwise.  Per-solve state lives in arrays
    indexed by the blocks' indices in the solve; successors are batched
    at the end of a walk so depth-first order matches explicit
    recursion. *)

open Fetch_x86
module Obs = Fetch_obs.Trace
module Bt = Block_table
module Itbl = Hashtbl.Make (Int)

let c_solves = Obs.counter "check.dataflow.solves"
let c_steps = Obs.counter "check.dataflow.steps"
let c_fatals = Obs.counter "check.dataflow.fatals"
let c_exhausted = Obs.counter "check.dataflow.fuel_exhausted"
let h_blocks = Obs.histogram "check.dataflow.blocks_per_solve"

type ('s, 'f) step = Step of 's | Drop | Fatal of 'f

module type LATTICE = sig
  type state
  type fatal

  val equal : state -> state -> bool
  val join : state -> state -> state
  val transfer : Insn_table.t -> addr:int -> int -> state -> (state, fatal) step
  val body : Block_table.t -> int -> state -> state option
end

type merge = First_write_wins | Join_fixpoint
type order = Depth_first | Breadth_first

type ('s, 'f) policy = {
  undecodable : int -> 'f option;
  call_returns : int -> 's -> bool;
  resolve_indirect :
    window:(int * int * Insn.t) list -> Insn.operand -> int list option;
  edge_state : 's -> 's;
  may_walk : int -> int -> bool;
  linear_after_jump : int -> bool;
  linear_after_indirect : int -> bool;
  inline_cond_fallthrough : bool;
  order : order;
}

let default_policy =
  {
    undecodable = (fun _ -> None);
    call_returns = (fun _ _ -> true);
    resolve_indirect = (fun ~window:_ _ -> None);
    edge_state = Fun.id;
    may_walk = (fun _ _ -> true);
    linear_after_jump = (fun _ -> false);
    linear_after_indirect = (fun _ -> false);
    inline_cond_fallthrough = false;
    order = Breadth_first;
  }

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

module Make (L : LATTICE) = struct
  type nonrec policy = (L.state, L.fatal) policy

  let default_policy = default_policy

  type solution = {
    entries : (int * int * L.state) list;
    fatal : L.fatal option;
    exhausted : bool;
    blocks_walked : int;
    steps : int;
    joins : int;
  }

  (* One solve: its inputs, the solve state and its tallies, kept per
     domain and reused by the domain's solves of this lattice.  The
     per-block state is indexed by the block's index in the solve
     ({!Block_table.solve_index}), so its arrays are as long as the most
     blocks one solve touched: [flags] holds reached (1), the visited
     mark ([First_write_wins]) or the presence of [in_st]
     ([Join_fixpoint]), and recorded (2), that of [rec_st], the state the
     walks entered the block with.  [recs] lists the recorded blocks.
     The worklist is [wl_a]/[wl_s] (addresses and in-states), between
     [wl_h] and [wl_n]; a walk's successors wait in [pend_a]/[pend_s]. *)
  type ctx = {
    mutable busy : bool;
    mutable bt : Bt.t;
    mutable tbl : Insn_table.t;
    mutable p : policy;
    mutable record : bool;
    mutable joining : bool;
    mutable init : L.state;
    mutable n_index : int;  (** blocks with an index *)
    mutable flags : int array;
    mutable in_st : L.state array;
    mutable rec_st : L.state array;
    mutable recs : int array;
    mutable n_recs : int;
    mutable wl_a : int array;
    mutable wl_s : L.state array;
    mutable wl_h : int;
    mutable wl_n : int;
    mutable pend_a : int array;
    mutable pend_s : L.state array;
    mutable n_pend : int;
    mutable steps : int;
    mutable blocks : int;
    mutable joins : int;
    mutable exhausted : bool;
    mutable odd : L.state Itbl.t option;
        (** worklist starts with no instruction: visited, or their
            in-state *)
    mutable built_to : int;
    mutable built : (int * int * Insn.t) list;
        (** the jump-table window built so far, up to [built_to], see
            {!window_to} *)
  }

  let fresh bt p init =
    {
      busy = false;
      bt;
      tbl = Bt.table bt;
      p;
      record = false;
      joining = false;
      init;
      n_index = 0;
      flags = [||];
      in_st = [||];
      rec_st = [||];
      recs = [||];
      n_recs = 0;
      wl_a = [||];
      wl_s = [||];
      wl_h = 0;
      wl_n = 0;
      pend_a = [||];
      pend_s = [||];
      n_pend = 0;
      steps = 0;
      blocks = 0;
      joins = 0;
      exhausted = false;
      odd = None;
      built_to = 0;
      built = [];
    }

  let key = Domain.DLS.new_key (fun () -> ref None)

  (* what an idle [ctx] points at, so that it keeps no binary alive *)
  let idle = Bt.create (Insn_table.create ~decode:(fun _ -> None) [])

  let release c =
    Bt.end_solve c.bt;
    c.busy <- false;
    c.bt <- idle;
    c.tbl <- Bt.table idle;
    c.p <- default_policy;
    c.odd <- None;
    c.built <- []

  exception Fatal_stop of L.fatal

  (* block [k]'s index, given one now if it has none *)
  let index c k =
    let i = Bt.solve_index c.bt k in
    if i >= 0 then i
    else begin
      let i = c.n_index in
      if i = Array.length c.flags then begin
        let n = max 16 (2 * i) in
        c.flags <- grown c.flags n 0;
        c.in_st <- grown c.in_st n c.init;
        c.rec_st <- grown c.rec_st n c.init
      end;
      c.flags.(i) <- 0;
      Bt.set_solve_index c.bt k i;
      c.n_index <- i + 1;
      i
    end

  let marked c k bit =
    k >= 0
    &&
    let i = Bt.solve_index c.bt k in
    i >= 0 && c.flags.(i) land bit <> 0

  let mark c k bit =
    let i = index c k in
    c.flags.(i) <- c.flags.(i) lor bit

  let rec_state c k = c.rec_st.(Bt.solve_index c.bt k)

  let add_rec c k st =
    mark c k 2;
    c.rec_st.(Bt.solve_index c.bt k) <- st;
    if c.n_recs = Array.length c.recs then
      c.recs <- grown c.recs (max 16 (2 * c.n_recs)) 0;
    c.recs.(c.n_recs) <- k;
    c.n_recs <- c.n_recs + 1

  (* [k0]'s record, stepped from its start to [a], records [k] *)
  let rec carry c k a a' st =
    if a' = a then add_rec c k st
    else
      let s = Insn_table.find c.tbl a' in
      match L.transfer c.tbl ~addr:a' s st with
      | Step st -> carry c k a (a' + Insn_table.len c.tbl s) st
      | Drop | Fatal _ -> ()

  (* The block starting at [a], made so if needed; a block split off a
     recorded one is recorded with the state its first instruction was
     reached with. *)
  let start c a =
    let k0 =
      if c.record then
        let s = Insn_table.find c.tbl a in
        if s < 0 then -1 else Insn_table.block c.tbl s
      else -1
    in
    let k = Bt.start c.bt a in
    if c.record && k >= 0 && k <> k0 && marked c k0 2 then
      carry c k a (Bt.lo c.bt k0) (rec_state c k0);
    k

  (* The walk under way stepped [\[lo k, m)] after entering [k] with
     [st0]: a record covers whole blocks, so [k] splits at [m] first. *)
  let record_block c k st0 m =
    if c.record then begin
      if m < Bt.hi c.bt k then ignore (start c m);
      if not (marked c k 2) then add_rec c k st0
      else if c.joining then
        let i = Bt.solve_index c.bt k in
        let old = c.rec_st.(i) in
        let j = L.join old st0 in
        if not (L.equal j old) then c.rec_st.(i) <- j
    end

  let push c a st =
    if c.wl_n = Array.length c.wl_a then begin
      let n = max 16 (2 * c.wl_n) in
      c.wl_a <- grown c.wl_a n 0;
      c.wl_s <- grown c.wl_s n c.init
    end;
    c.wl_a.(c.wl_n) <- a;
    c.wl_s.(c.wl_n) <- st;
    c.wl_n <- c.wl_n + 1

  let emit c st t =
    if Insn_table.in_text c.tbl t && c.p.may_walk t (t + 1) then begin
      if c.n_pend = Array.length c.pend_a then begin
        let n = max 8 (2 * c.n_pend) in
        c.pend_a <- grown c.pend_a n 0;
        c.pend_s <- grown c.pend_s n c.init
      end;
      c.pend_a.(c.n_pend) <- t;
      c.pend_s.(c.n_pend) <- c.p.edge_state st;
      c.n_pend <- c.n_pend + 1
    end

  (* The reversed (addr, len, insn) run from the walk's start through
     [upto], the straight-line walk's instructions (it only ever steps
     to [addr + len]); built on demand, each request extending the
     last. *)
  let window_to c upto =
    let rec run a acc =
      if a > upto then begin
        c.built_to <- a;
        c.built <- acc;
        acc
      end
      else
        let s = Insn_table.find c.tbl a in
        let len = Insn_table.len c.tbl s in
        run (a + len) ((a, len, Insn_table.insn c.tbl s) :: acc)
    in
    run c.built_to c.built

  (* Go on at [a], where a block begins or is made to begin, in state
     [st] with [fuel] instructions left.  The body of the block is one
     step when its summary says no instruction of it ends the walk.  (A
     block is made at [a] even where the walk may not go on: blocks only
     get finer, which no walk can tell.) *)
  let rec enter c a st fuel =
    if fuel <= 0 then c.exhausted <- true
    else
      let k = start c a in
      if k < 0 then begin
        if c.p.may_walk a (a + 1) then
          match c.p.undecodable a with
          | Some f -> raise (Fatal_stop f)
          | None -> ()
      end
      else
        let bt = c.bt in
        let whole = c.p.may_walk a (Bt.hi bt k) in
        if whole || c.p.may_walk a (a + 1) then
          let nb = Bt.body_insns bt k in
          match if whole && nb > 0 && nb <= fuel then L.body bt k st else None with
          | Some st' ->
              c.steps <- c.steps + nb;
              if nb = Bt.insns bt k then begin
                let hi = Bt.hi bt k in
                record_block c k st hi;
                enter c hi st' (fuel - nb)
              end
              else if fuel > nb then insn c k st (Bt.last bt k) nb st' (fuel - nb)
              else begin
                (* the walk may go on to the last instruction, [whole] says *)
                c.exhausted <- true;
                record_block c k st (Bt.last bt k)
              end
          | None -> insn c k st a 0 st fuel

  (* the [i]th instruction of [k], at [a], unless the walk ends there *)
  and next c k st0 a i st fuel =
    if fuel <= 0 then begin
      c.exhausted <- true;
      record_block c k st0 a
    end
    else if c.p.may_walk a (a + 1) then insn c k st0 a i st fuel
    else record_block c k st0 a

  and insn c k st0 a i st fuel =
    let s = Insn_table.find c.tbl a in
    let len = Insn_table.len c.tbl s in
    c.steps <- c.steps + 1;
    match L.transfer c.tbl ~addr:a s st with
    | Fatal f ->
        record_block c k st0 (a + len);
        raise (Fatal_stop f)
    | Drop -> record_block c k st0 (a + len)
    | Step st' ->
        if i + 1 < Bt.insns c.bt k then
          next c k st0 (a + len) (i + 1) st' (fuel - 1)
        else begin
          record_block c k st0 (a + len);
          ending c k a (a + len) s st st' fuel
        end

  (* the last instruction of block [k], at [a], stepped from [st] to
     [st'] *)
  and ending c k a next_a s st st' fuel =
    let p = c.p in
    match Bt.kind c.bt k with
    | Bt.Fall -> enter c next_a st' (fuel - 1)
    | Bt.Ret | Bt.Halt -> ()
    | Bt.Jump ->
        emit c st' (Bt.slot_target c.tbl s);
        if p.linear_after_jump next_a then enter c next_a st' (fuel - 1)
    | Bt.Cond ->
        emit c st' (Bt.slot_target c.tbl s);
        if p.inline_cond_fallthrough then enter c next_a st' (fuel - 1)
        else emit c st' next_a
    | Bt.Jump_ind -> (
        let op =
          match Insn_table.insn c.tbl s with
          | Insn.Jmp_ind op -> op
          | _ -> invalid_arg "Dataflow: an indirect jump ends the block"
        in
        match p.resolve_indirect ~window:(window_to c a) op with
        | Some ts -> List.iter (emit c st') ts
        | None ->
            if p.linear_after_indirect next_a then enter c next_a st' (fuel - 1))
    | Bt.Call -> if p.call_returns (Bt.slot_target c.tbl s) st then enter c next_a st' (fuel - 1)

  let odd_tbl c =
    match c.odd with
    | Some t -> t
    | None ->
        let t = Itbl.create 8 in
        c.odd <- Some t;
        t

  (* Join-mode admission: merge into the block's in-state, and queue the
     block when that changed it. *)
  let admit c t st =
    let k = start c t in
    if k >= 0 then begin
      let i = index c k in
      if c.flags.(i) land 1 = 0 then begin
        c.flags.(i) <- c.flags.(i) lor 1;
        c.in_st.(i) <- st;
        push c t st
      end
      else
        let old = c.in_st.(i) in
        let j = L.join old st in
        if not (L.equal j old) then begin
          c.joins <- c.joins + 1;
          c.in_st.(i) <- j;
          push c t j
        end
    end
    else
      let odd = odd_tbl c in
      match Itbl.find_opt odd t with
      | None ->
          Itbl.replace odd t st;
          push c t st
      | Some old ->
          let j = L.join old st in
          if not (L.equal j old) then begin
            c.joins <- c.joins + 1;
            Itbl.replace odd t j;
            push c t j
          end

  (* First-write-wins: has a walk begun at [b]?  Marks it if not. *)
  let visit c b =
    let k = start c b in
    if k >= 0 then marked c k 1 || (mark c k 1; false)
    else
      let t = odd_tbl c in
      Itbl.mem t b || (Itbl.replace t b c.init; false)

  let walk c ~fuel b st =
    c.built_to <- b;
    c.built <- [];
    c.n_pend <- 0;
    enter c b st fuel;
    let base = c.wl_n in
    for i = 0 to c.n_pend - 1 do
      if c.joining then admit c c.pend_a.(i) c.pend_s.(i)
      else push c c.pend_a.(i) c.pend_s.(i)
    done;
    (* depth-first: the first successor is popped first *)
    if (match c.p.order with Depth_first -> true | Breadth_first -> false) then begin
      let i = ref base and j = ref (c.wl_n - 1) in
      while !i < !j do
        let a = c.wl_a.(!i) and s = c.wl_s.(!i) in
        c.wl_a.(!i) <- c.wl_a.(!j);
        c.wl_s.(!i) <- c.wl_s.(!j);
        c.wl_a.(!j) <- a;
        c.wl_s.(!j) <- s;
        incr i;
        decr j
      done
    end

  let rec loop c ~fuel ~max_blocks =
    if c.wl_h < c.wl_n then begin
        let i =
        match c.p.order with
        | Depth_first ->
            c.wl_n <- c.wl_n - 1;
            c.wl_n
        | Breadth_first ->
            c.wl_h <- c.wl_h + 1;
            c.wl_h - 1
      in
      if c.blocks >= max_blocks then c.exhausted <- true
      else begin
        let b = c.wl_a.(i) and st = c.wl_s.(i) in
        if c.joining || not (visit c b) then begin
          c.blocks <- c.blocks + 1;
          walk c ~fuel b st
        end;
        loop c ~fuel ~max_blocks
      end
    end

  let rec entries c i acc =
    if i < 0 then acc
    else
      let k = c.recs.(i) in
      entries c (i - 1) ((Bt.lo c.bt k, Bt.hi c.bt k, rec_state c k) :: acc)

  let solve ?(max_block_insns = 4096) ?(max_blocks = 4096) ?(record = true) bt
      policy ~merge ~entry ~init () =
    Obs.incr c_solves;
    let slot = Domain.DLS.get key in
    let c =
      match !slot with
      | Some c when not c.busy ->
          c.bt <- bt;
          c.tbl <- Bt.table bt;
          c.p <- policy;
          c.init <- init;
          c
      | Some _ -> invalid_arg "Dataflow.solve: solves of one lattice must not nest"
      | None ->
          let c = fresh bt policy init in
          slot := Some c;
          c
    in
    Bt.begin_solve bt;
    c.busy <- true;
    c.record <- record;
    c.joining <- (match merge with Join_fixpoint -> true | First_write_wins -> false);
    c.n_index <- 0;
    c.n_recs <- 0;
    c.wl_h <- 0;
    c.wl_n <- 0;
    c.steps <- 0;
    c.blocks <- 0;
    c.joins <- 0;
    c.exhausted <- false;
    c.odd <- None;
    let fatal =
      match
        if c.joining then admit c entry init else push c entry init;
        loop c ~fuel:max_block_insns ~max_blocks
      with
      | () -> None
      | exception Fatal_stop f ->
          Obs.incr c_fatals;
          Some f
      | exception e ->
          release c;
          raise e
    in
    Obs.add c_steps c.steps;
    if c.exhausted then Obs.incr c_exhausted;
    if Obs.enabled () then Obs.observe h_blocks c.blocks;
    let entries = entries c (c.n_recs - 1) [] in
    release c;
    {
      entries;
      fatal;
      exhausted = c.exhausted;
      blocks_walked = c.blocks;
      steps = c.steps;
      joins = c.joins;
    }

  let iter_states tbl sol f =
    List.iter
      (fun (lo, hi, st) ->
        let rec go a st =
          f a st;
          let s = Insn_table.find tbl a in
          let a' = a + Insn_table.len tbl s in
          if a' < hi then
            match L.transfer tbl ~addr:a s st with
            | Step st' -> go a' st'
            | Drop | Fatal _ -> ()
        in
        go lo st)
      sol.entries
end
