(** x86-64 instruction AST.

    The subset covers everything the synthetic compiler emits plus the
    encodings real compilers commonly produce for those constructs, so
    the decoder can round-trip generated code and reject arbitrary data
    with a realistic probability.  Operation width is 64 or 32 bits
    (8/16-bit operations are not needed by any analysis in the paper). *)

type width = W32 | W64

(** Control-flow or data target, symbolic until the assembler lays code
    out. *)
type target = To_label of string | To_addr of int

(** Memory operand: [\[base + index*scale + disp\]], or RIP-relative.  A
    RIP-relative operand may carry a symbolic target ([rip_sym]); the
    encoder then computes the displacement from the resolved address. *)
type mem = {
  base : Reg.t option;
  index : (Reg.t * int) option;  (** (register, scale in 1/2/4/8) *)
  disp : int;
  rip_rel : bool;  (** when set, [base]/[index] must be [None] *)
  rip_sym : target option;  (** symbolic RIP-relative destination *)
}

(** Plain memory operand constructor. *)
val mem : ?base:Reg.t -> ?index:Reg.t * int -> ?disp:int -> unit -> mem

(** Concrete RIP-relative operand with a fixed displacement. *)
val rip_rel : int -> mem

(** Symbolic RIP-relative operand, resolved at encode time. *)
val rip_sym : target -> mem

type operand = Reg of Reg.t | Imm of int | Mem of mem

type cond = E | Ne | L | Le | G | Ge | B | Be | A | Ae | S | Ns | O | No | P | Np

type arith = Add | Sub | And | Or | Xor | Cmp

type t =
  | Push of Reg.t
  | Pop of Reg.t
  | Mov of width * operand * operand  (** dst, src *)
  | Movabs of Reg.t * int  (** 64-bit immediate load *)
  | Lea of Reg.t * mem
  | Arith of arith * width * operand * operand  (** dst, src *)
  | Test of width * Reg.t * Reg.t
  | Imul of Reg.t * operand
  | Shift of [ `Shl | `Shr | `Sar ] * Reg.t * int
  | Neg of width * Reg.t
  | Inc of Reg.t
  | Dec of Reg.t
  | Movsxd of Reg.t * mem  (** sign-extending 32→64 load (jump tables) *)
  | Movzx of Reg.t * [ `B8 | `B16 ] * operand
      (** zero-extending load from an 8/16-bit register or memory *)
  | Movsx of Reg.t * [ `B8 | `B16 ] * operand  (** sign-extending variant *)
  | Setcc of cond * Reg.t  (** write condition flag into the low byte *)
  | Cmov of cond * Reg.t * operand  (** conditional move (64-bit) *)
  | Div of width * Reg.t  (** unsigned divide rdx:rax by the register *)
  | Idiv of width * Reg.t
  | Mul of width * Reg.t
  | Cqo  (** sign-extend rax into rdx:rax (cdq for 32-bit) *)
  | Cdq
  | Not of width * Reg.t
  | Xchg of Reg.t * Reg.t
  | Push_imm of int
  | Test_imm of width * Reg.t * int
  | Call of target
  | Call_ind of operand
  | Jmp of target
  | Jmp_short of target  (** rel8 encoding *)
  | Jmp_ind of operand
  | Jcc of cond * target
  | Jcc_short of cond * target
  | Ret
  | Leave
  | Nop of int  (** canonical multi-byte NOP of the given length, 1–9 *)
  | Endbr64
  | Ud2
  | Int3
  | Hlt
  | Syscall
  | Cpuid

(** {1 Condition codes} *)

(** The 4-bit [tttn] field of the 0F 8x / 7x opcodes. *)
val cond_code : cond -> int

val cond_of_code : int -> cond

(** {1 Printing} *)

(** Intel-ish rendering, e.g. ["mov rax, [rbp-0x8]"]. *)
val to_string : t -> string

(** {1 Traversal} *)

(** Apply a function to every memory operand of the instruction. *)
val map_mem : (mem -> mem) -> t -> t

(** The symbolic RIP-relative target of the instruction, if any. *)
val rip_sym_of : t -> target option
