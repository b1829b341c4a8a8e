(** One flat basic-block table per binary — layout in the interface. *)

type kind = Fall | Ret | Halt | Jump | Cond | Jump_ind | Call

let kinds = [| Fall; Ret; Halt; Jump; Cond; Jump_ind; Call |]

let kind_code = function
  | Fall -> 0
  | Ret -> 1
  | Halt -> 2
  | Jump -> 3
  | Cond -> 4
  | Jump_ind -> 5
  | Call -> 6

type first_arg = Zero | Nonzero | Unknown

(* A first-argument effect: [0], [1] and [2] set it to [Zero], [Nonzero]
   and [Unknown]; [pass] leaves it as it was. *)
let args = [| Zero; Nonzero; Unknown |]
let pass = 3
let arg_code = function Zero -> 0 | Nonzero -> 1 | Unknown -> 2

(* The effect of slot [s] after effect [e]. *)
let step tbl s e =
  match Insn_table.insn tbl s with
  | Insn.Mov (_, Insn.Reg Reg.Rdi, Insn.Imm 0)
  | Insn.Arith (Insn.Xor, _, Insn.Reg Reg.Rdi, Insn.Reg Reg.Rdi) ->
      0
  | Insn.Mov (_, Insn.Reg Reg.Rdi, Insn.Imm _) -> 1
  | Insn.Call _ | Insn.Call_ind _ -> 2
  | _ -> if Insn_table.defs tbl s land Reg.bit Reg.Rdi <> 0 then 2 else e

let first_arg_step tbl s arg = args.(step tbl s (arg_code arg))

(* The initialized registers after slot [s] (§IV-E): its defs join them,
   and a call leaves only the callee-saved ones and the return value. *)
let regs_step tbl s init =
  let init = init lor Insn_table.defs tbl s in
  match Insn_table.insn tbl s with
  | Insn.Call _ | Insn.Call_ind _ -> (init land Reg.callee_saved_mask) lor Reg.bit Reg.Rax
  | _ -> init

type t = {
  tbl : Insn_table.t;  (** keeps each slot's block, {!Insn_table.block} *)
  mutable n : int;
  mutable blocks : int array;
      (** per block, [stride] ints: [lo], [info], the walk stamp, the
          body summary and the solve index.  [info] is [kind lor (effect
          lsl 3) lor (indirect_call lsl 5) lor (count lsl 6) lor (last_len
          lsl 28) lor ((hi - lo) lsl 32)], [last_len] the length of the
          last instruction; the stamp is [(epoch lsl 2) lor visited lor
          (called lsl 1)]; the summary is [0] until computed, see
          {!summary}; the solve index is [(solve lsl 26) lor index] *)
  mutable epoch : int;
  mutable solve : int;  (** the solve epoch, see {!begin_solve} *)
  mutable solving : bool;
  mutable queue : int array;  (** a walk's pending pairs, see {!push} *)
  mutable q_head : int;
  mutable q_tail : int;
  mutable wide : (int, int) Hashtbl.t option;
      (** the sp deltas too wide for a summary, by block *)
}

let stride = 5

(* The most instructions a block holds, so that its count fits [info]: a
   longer straight run is cut into several blocks. *)
let max_insns = (1 lsl 22) - 1

(* Starts small and doubles: sized up front from the text size (a block
   per sixteen bytes), it raised fetchbench's corpus-batch peak heap by
   about 6%. *)
let create tbl =
  {
    tbl;
    n = 0;
    blocks = Array.make (stride * 64) 0;
    epoch = 0;
    solve = 0;
    solving = false;
    queue = Array.make 64 0;
    q_head = 0;
    q_tail = 0;
    wide = None;
  }

let grown a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let alloc t =
  let k = t.n in
  if stride * k = Array.length t.blocks then t.blocks <- grown t.blocks (2 * stride * k);
  t.n <- k + 1;
  k

let lo t k = t.blocks.(stride * k)
let info t k = t.blocks.((stride * k) + 1)

let set t k ~lo ~hi ~last_len kind ~effect ~indirect ~count =
  let i = stride * k in
  t.blocks.(i) <- lo;
  t.blocks.(i + 1) <-
    kind_code kind lor (effect lsl 3)
    lor ((if indirect then 1 else 0) lsl 5)
    lor (count lsl 6) lor (last_len lsl 28)
    lor ((hi - lo) lsl 32);
  t.blocks.(i + 3) <- 0

(* How a block ends, from the flow of its last instruction. *)
let ending = function
  | Semantics.Fall | Semantics.Callf (Semantics.Indirect _) -> Fall
  | Semantics.Ret -> Ret
  | Semantics.Halt -> Halt
  | Semantics.Jump (Semantics.Direct _) -> Jump
  | Semantics.Jump (Semantics.Indirect _) -> Jump_ind
  | Semantics.Cond _ -> Cond
  | Semantics.Callf (Semantics.Direct _) -> Call

(* Give block [k] the instructions from [lo] on, back to back, the one at
   [a] (slot [s]) next, [n] before it.  With [stop >= 0] the block ends
   before [stop]; otherwise it is being built, and ends at a control
   transfer or direct call, before an address with no instruction, or
   before an instruction of another block (which {!start} splits there
   when a walk goes on into it).  The effect on the first argument
   covers every instruction before the last, and the last too when it
   falls through. *)
let rec scan t k ~lo ~stop a s n indirect effect =
  let tbl = t.tbl in
  Insn_table.set_block tbl s k;
  let len = Insn_table.len tbl s in
  let next = a + len and count = n + 1 in
  match Insn_table.flow tbl s with
  | (Semantics.Fall | Semantics.Callf (Semantics.Indirect _)) as fl ->
      let indirect = indirect || fl != Semantics.Fall
      and effect = step tbl s effect in
      let s' = if stop >= 0 && next >= stop then -1 else Insn_table.find tbl next in
      if s' >= 0 && (stop >= 0 || Insn_table.block tbl s' < 0) && count < max_insns then
        scan t k ~lo ~stop next s' count indirect effect
      else set t k ~lo ~hi:next ~last_len:len Fall ~effect ~indirect ~count
  | fl -> set t k ~lo ~hi:next ~last_len:len (ending fl) ~effect ~indirect ~count

(* Split block [k] at [x], one of its instructions other than the first:
   [k] keeps [\[lo, x)] and falls into a new block, which takes the rest
   and [k]'s ending. *)
let split t k x =
  let k' = alloc t and tbl = t.tbl and lo = lo t k in
  scan t k' ~lo:x ~stop:(lo + (info t k lsr 32)) x (Insn_table.find tbl x) 0 false pass;
  scan t k ~lo ~stop:x lo (Insn_table.find tbl lo) 0 false pass;
  k'

let start t addr =
  let s = Insn_table.find t.tbl addr in
  if s < 0 then -1
  else
    let k = Insn_table.block t.tbl s in
    if k >= 0 then if lo t k = addr then k else split t k addr
    else begin
      let k = alloc t in
      scan t k ~lo:addr ~stop:(-1) addr s 0 false pass;
      k
    end

let count t = t.n
let table t = t.tbl
let hi t k = lo t k + (info t k lsr 32)
let kind t k = kinds.(info t k land 7)
let insns t k = (info t k lsr 6) land 0x3fffff
let last t k = hi t k - ((info t k lsr 28) land 0xf)
let has_indirect_call t k = (info t k lsr 5) land 1 = 1

(* read from the instruction, as {!Semantics.flow} does, without
   building the flow *)
let slot_target tbl s =
  match Insn_table.insn tbl s with
  | Insn.Jmp (Insn.To_addr d)
  | Insn.Jmp_short (Insn.To_addr d)
  | Insn.Jcc (_, Insn.To_addr d)
  | Insn.Jcc_short (_, Insn.To_addr d)
  | Insn.Call (Insn.To_addr d) ->
      d
  | _ -> invalid_arg "Block_table.target: not a direct transfer"

let target t k = slot_target t.tbl (Insn_table.find t.tbl (last t k))

let arg_after t k arg =
  let e = (info t k lsr 3) land 3 in
  if e = pass then arg else args.(e)

(* One walk at a time: a new epoch clears every stamp and the queue. *)
let begin_walk t =
  t.epoch <- t.epoch + 1;
  t.q_head <- 0;
  t.q_tail <- 0

let stamped t k bit =
  let v = t.blocks.((stride * k) + 2) in
  v lsr 2 = t.epoch && v land bit <> 0

let stamp t k bit =
  let i = (stride * k) + 2 in
  let v = t.blocks.(i) in
  t.blocks.(i) <- (if v lsr 2 = t.epoch then v lor bit else (t.epoch lsl 2) lor bit)

let visited t k = stamped t k 1
let visit t k = stamp t k 1
let called t k = stamped t k 2
let call t k = stamp t k 2

(* One solve at a time, with its own epoch: a new one clears every
   block's index. *)
let begin_solve t =
  if t.solving then invalid_arg "Block_table.begin_solve: a solve is under way";
  t.solving <- true;
  t.solve <- t.solve + 1

let end_solve t = t.solving <- false
let index_bits = 26

let solve_index t k =
  let v = t.blocks.((stride * k) + 4) in
  if v lsr index_bits = t.solve then v land ((1 lsl index_bits) - 1) else -1

let set_solve_index t k i = t.blocks.((stride * k) + 4) <- (t.solve lsl index_bits) lor i

let push t a b =
  if t.q_tail + 2 > Array.length t.queue then
    if t.q_head > 0 then begin
      Array.blit t.queue t.q_head t.queue 0 (t.q_tail - t.q_head);
      t.q_tail <- t.q_tail - t.q_head;
      t.q_head <- 0
    end
    else t.queue <- grown t.queue (2 * Array.length t.queue);
  t.queue.(t.q_tail) <- a;
  t.queue.(t.q_tail + 1) <- b;
  t.q_tail <- t.q_tail + 2

let is_empty t = t.q_head >= t.q_tail

let pop t =
  let a = t.queue.(t.q_head) in
  t.q_head <- t.q_head + 2;
  a

let popped_with t = t.queue.(t.q_head - 1)

(* ---- body summaries.  The body is what [arg_after] covers: every
   instruction of a [Fall] block, all but the last of any other, so each
   body instruction falls through (an indirect call included). *)

let body_insns t k =
  let n = insns t k in
  if info t k land 7 = kind_code Fall then n else n - 1

(* The body summary, one int computed on first use:

   - registers: the body maps the initialized registers [x] to
     [(x land a) lor b], and reads the registers [n] (arguments aside)
     before writing them.  [a] is every register, or only the
     callee-saved ones and rax once the body holds a call, so one bit
     ([called]) tells which.  [n] also holds [always_fails], a bit no
     register set has, when the body reads a register that a call in it
     clobbered and nothing wrote since: that read fails from any state;
   - heights: the body's total {!Semantics.sp_delta} [d], counting the
     known ones, and whether one is unknown.  A [d] outside 26 signed
     bits is kept in [wide] instead.

   Packed as [1 lor (called lsl 1) lor (b lsl 2) lor (n lsl 18) lor
   (unknown lsl 35) lor (is_wide lsl 36) lor (d lsl 37)]. *)
let regs_all = 0xffff
let always_fails = 1 lsl 16
let called_regs = Reg.callee_saved_mask lor Reg.bit Reg.Rax
let d_bits = 26

let summary t k =
  let i = (stride * k) + 3 in
  let v = t.blocks.(i) in
  if v <> 0 then v
  else begin
    let tbl = t.tbl in
    let called = ref false and b = ref 0 and n = ref 0 in
    let d = ref 0 and unknown = ref false and addr = ref (lo t k) in
    for _ = 1 to body_insns t k do
      let s = Insn_table.find tbl !addr in
      let a = if !called then called_regs else regs_all in
      let u = Insn_table.uses tbl s land lnot (!b lor Reg.args_mask) in
      n := !n lor u lor (if u land lnot a <> 0 then always_fails else 0);
      (* the instruction's own map: [x] to [(x land a') lor b'] *)
      let a' = regs_step tbl s regs_all and b' = regs_step tbl s 0 in
      called := !called || a' <> regs_all;
      b := (!b land a') lor b';
      (match Semantics.sp_delta (Insn_table.insn tbl s) with
      | Some x -> d := !d + x
      | None -> unknown := true);
      addr := !addr + Insn_table.len tbl s
    done;
    let is_wide = !d >= 1 lsl (d_bits - 1) || !d < -(1 lsl (d_bits - 1)) in
    if is_wide then begin
      let w = match t.wide with Some w -> w | None -> Hashtbl.create 1 in
      t.wide <- Some w;
      Hashtbl.replace w k !d
    end;
    let flag c bit = if c then 1 lsl bit else 0 in
    let v =
      1 lor flag !called 1 lor (!b lsl 2) lor (!n lsl 18) lor flag !unknown 35
      lor flag is_wide 36
      lor ((if is_wide then 0 else !d) lsl 37)
    in
    t.blocks.(i) <- v;
    v
  end

let regs_after t k init =
  let v = summary t k in
  (init land if v land 2 <> 0 then called_regs else regs_all)
  lor ((v lsr 2) land regs_all)

let regs_needed t k = (summary t k lsr 18) land (regs_all lor always_fails)
let sp_unknown t k = summary t k land (1 lsl 35) <> 0

let sp_delta t k =
  let v = summary t k in
  if v land (1 lsl 36) = 0 then v asr 37
  else match t.wide with Some w -> Hashtbl.find w k | None -> assert false
