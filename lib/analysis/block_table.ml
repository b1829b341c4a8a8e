(** One flat basic-block table per binary — layout in the interface. *)

open Fetch_x86

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

type t = {
  tbl : Insn_table.t;  (** keeps each slot's block, {!Insn_table.block} *)
  mutable n : int;
  mutable blocks : int array;
      (** per block, [stride] ints: [lo], [info] and the walk stamp.
          [info] is [kind lor (effect lsl 3) lor (indirect_call lsl 5) lor
          (count lsl 6) lor (last_len lsl 28) lor ((hi - lo) lsl 32)],
          [last_len] the length of the last instruction; the stamp is
          [(epoch lsl 2) lor visited lor (called lsl 1)] *)
  mutable epoch : int;
  mutable queue : int array;  (** a walk's pending pairs, see {!push} *)
  mutable q_head : int;
  mutable q_tail : int;
}

let stride = 3

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
    queue = Array.make 64 0;
    q_head = 0;
    q_tail = 0;
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
    lor ((hi - lo) lsl 32)

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
let hi t k = lo t k + (info t k lsr 32)
let kind t k = kinds.(info t k land 7)
let insns t k = (info t k lsr 6) land 0x3fffff
let last t k = hi t k - ((info t k lsr 28) land 0xf)
let has_indirect_call t k = (info t k lsr 5) land 1 = 1

let target t k =
  match Insn_table.flow t.tbl (Insn_table.find t.tbl (last t k)) with
  | Semantics.Jump (Semantics.Direct d) | Semantics.Cond d | Semantics.Callf (Semantics.Direct d) -> d
  | _ -> invalid_arg "Block_table.target: the block does not end in a direct transfer"

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
