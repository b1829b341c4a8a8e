(** Per-instruction semantic summaries used by the analyses: control flow,
    stack-pointer effect, and register use/def sets. *)

open Insn

(** A control-flow destination after decoding: direct targets are absolute
    addresses, indirect ones carry the operand for jump-table analysis. *)
type dest = Direct of int | Indirect of operand

type flow =
  | Fall  (** execution continues at the next instruction only *)
  | Jump of dest
  | Cond of int  (** taken target; also falls through *)
  | Callf of dest
  | Ret
  | Halt  (** ud2 / hlt / int3: execution cannot continue *)

let addr_of_target = function
  | To_addr a -> a
  | To_label _ -> invalid_arg "Semantics: unresolved label"

(** [flow insn] classifies a decoded instruction (targets must be
    [To_addr], as the decoder produces). *)
let flow = function
  | Jmp t | Jmp_short t -> Jump (Direct (addr_of_target t))
  | Jmp_ind o -> Jump (Indirect o)
  | Jcc (_, t) | Jcc_short (_, t) -> Cond (addr_of_target t)
  | Call t -> Callf (Direct (addr_of_target t))
  | Call_ind o -> Callf (Indirect o)
  | Ret -> Ret
  | Ud2 | Hlt | Int3 -> Halt
  | Push _ | Pop _ | Mov _ | Movabs _ | Lea _ | Arith _ | Test _ | Imul _
  | Shift _ | Neg _ | Inc _ | Dec _ | Movsxd _ | Movzx _ | Movsx _ | Setcc _
  | Cmov _ | Div _ | Idiv _ | Mul _ | Cqo | Cdq | Not _ | Xchg _ | Push_imm _
  | Test_imm _ | Leave | Nop _ | Endbr64 | Syscall | Cpuid ->
      Fall

(** Effect on [rsp], in bytes ([Some d] means rsp += d); [None] when the
    instruction writes rsp in a way static analysis cannot track without
    more context ([leave], [mov rsp, ...]). *)
let sp_delta = function
  | Push _ | Push_imm _ -> Some (-8)
  | Xchg (a, b) when Reg.equal a Reg.Rsp || Reg.equal b Reg.Rsp -> None
  | Pop Reg.Rsp -> None
  | Pop _ -> Some 8
  | Arith (Sub, W64, Reg Reg.Rsp, Imm v) -> Some (-v)
  | Arith (Add, W64, Reg Reg.Rsp, Imm v) -> Some v
  | Arith ((Add | Sub | And | Or | Xor), _, Reg Reg.Rsp, _) -> None
  | Mov (_, Reg Reg.Rsp, _) -> None
  | Lea (Reg.Rsp, _) -> None
  | Movabs (Reg.Rsp, _) -> None
  | Leave -> None
  | Ret -> Some 8
  | Call _ | Call_ind _ -> Some 0
      (* net effect seen by the caller after the callee returns *)
  | Mov _ | Movabs _ | Lea _ | Arith _ | Test _ | Imul _ | Shift _ | Neg _
  | Inc _ | Dec _ | Movsxd _ | Movzx _ | Movsx _ | Setcc _ | Cmov _ | Div _
  | Idiv _ | Mul _ | Cqo | Cdq | Not _ | Xchg _ | Test_imm _ | Jmp _
  | Jmp_short _ | Jmp_ind _ | Jcc _ | Jcc_short _ | Nop _ | Endbr64 | Ud2
  | Int3 | Hlt | Syscall | Cpuid ->
      Some 0

(* [fold_mem]/[fold_operand]/[fold_reads f acc]: fold [f] over the
   registers read, in order, [rsp] included. *)
let fold_mem f acc (m : mem) =
  let acc = match m.base with Some b -> f acc b | None -> acc in
  match m.index with Some (r, _) -> f acc r | None -> acc

let fold_operand f acc = function
  | Reg r -> f acc r
  | Imm _ -> acc
  | Mem m -> fold_mem f acc m

let fold_reads f acc = function
  | Push _ -> acc
  | Pop _ -> acc
  | Mov (_, Reg _, src) -> fold_operand f acc src
  | Mov (_, Mem m, src) -> fold_operand f (fold_mem f acc m) src
  | Mov (_, Imm _, _) -> acc
  | Movabs _ -> acc
  | Lea (_, m) -> fold_mem f acc m
  | Arith (Xor, _, Reg d, Reg s) when Reg.equal d s -> acc (* zeroing idiom *)
  | Arith (_, _, Reg d, src) -> fold_operand f (f acc d) src
  | Arith (_, _, Mem m, src) -> fold_operand f (fold_mem f acc m) src
  | Arith (_, _, Imm _, _) -> acc
  | Test (_, a, b) -> f (f acc a) b
  | Imul (d, src) -> fold_operand f (f acc d) src
  | Shift (_, r, _) -> f acc r
  | Neg (_, r) -> f acc r
  | Inc r | Dec r -> f acc r
  | Movsxd (_, m) -> fold_mem f acc m
  | Movzx (_, _, src) | Movsx (_, _, src) -> fold_operand f acc src
  | Setcc _ -> acc
  | Cmov (_, d, src) -> fold_operand f (f acc d) src
  | Div (_, r) | Idiv (_, r) -> f (f (f acc Reg.Rax) Reg.Rdx) r
  | Mul (_, r) -> f (f acc Reg.Rax) r
  | Cqo | Cdq -> f acc Reg.Rax
  | Not (_, r) -> f acc r
  | Xchg (a, b) -> f (f acc a) b
  | Push_imm _ -> acc
  | Test_imm (_, r, _) -> f acc r
  | Call_ind o | Jmp_ind o -> fold_operand f acc o
  | Call _ | Jmp _ | Jmp_short _ | Jcc _ | Jcc_short _ -> acc
  | Ret | Leave | Nop _ | Endbr64 | Ud2 | Int3 | Hlt | Cpuid -> acc
  | Syscall -> f acc Reg.Rax

(** Registers read by the instruction, for the calling-convention check of
    §IV-E.  [push reg] is treated as a save, not a use (otherwise every
    [push rbp] prologue would violate the rule); reads of [rsp] are never
    reported. *)
let uses insn =
  List.rev
    (fold_reads
       (fun acc r -> if Reg.equal r Reg.Rsp then acc else r :: acc)
       [] insn)

let uses_mask insn =
  fold_reads (fun m r -> m lor Reg.bit r) 0 insn land lnot (Reg.bit Reg.Rsp)

let rax_rdx = Reg.mask [ Reg.Rax; Reg.Rdx ]
let syscall_defs = Reg.mask [ Reg.Rax; Reg.Rcx; Reg.R11 ]
let cpuid_defs = Reg.mask [ Reg.Rax; Reg.Rbx; Reg.Rcx; Reg.Rdx ]

(** Registers fully (re)defined by the instruction, as a mask. *)
let defs = function
  | Pop r -> Reg.bit r
  | Mov (W64, Reg d, _) | Movabs (d, _) | Lea (d, _) | Movsxd (d, _) ->
      Reg.bit d
  | Mov (W32, Reg d, _) -> Reg.bit d (* 32-bit writes zero the upper half *)
  | Arith (Xor, _, Reg d, Reg s) when Reg.equal d s -> Reg.bit d
  | Arith (Cmp, _, _, _) | Test _ -> 0
  | Arith (_, _, Reg d, _) -> Reg.bit d
  | Imul (d, _) -> Reg.bit d
  | Shift (_, r, _) -> Reg.bit r
  | Neg (_, r) -> Reg.bit r
  | Inc r | Dec r -> Reg.bit r
  | Movzx (d, _, _) | Movsx (d, _, _) | Cmov (_, d, _) -> Reg.bit d
  | Div (_, _) | Idiv (_, _) | Mul (_, _) -> rax_rdx
  | Cqo | Cdq -> Reg.bit Reg.Rdx
  | Not (_, r) -> Reg.bit r
  | Xchg (a, b) -> Reg.bit a lor Reg.bit b
  | Setcc _ -> 0 (* writes only the low byte: not a full definition *)
  | Push_imm _ | Test_imm _ -> 0
  | Leave -> Reg.bit Reg.Rbp
  | Syscall -> syscall_defs
  | Cpuid -> cpuid_defs
  | Push _ | Mov (_, (Mem _ | Imm _), _) | Arith (_, _, (Mem _ | Imm _), _)
  | Call _ | Call_ind _ | Jmp _ | Jmp_short _ | Jmp_ind _ | Jcc _
  | Jcc_short _ | Ret | Nop _ | Endbr64 | Ud2 | Int3 | Hlt ->
      0
