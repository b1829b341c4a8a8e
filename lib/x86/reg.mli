(** x86-64 general-purpose registers. *)

type t =
  | Rax
  | Rcx
  | Rdx
  | Rbx
  | Rsp
  | Rbp
  | Rsi
  | Rdi
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

(** All sixteen registers, in hardware-number order. *)
val all : t array

(** Hardware encoding number (0–15), as used in ModRM/SIB/REX. *)
val number : t -> int

(** Inverse of {!number}; raises [Invalid_argument] outside 0–15. *)
val of_number : int -> t

(** DWARF register number, as used in CFI (note rsp = 7, rbp = 6). *)
val dwarf_number : t -> int

val name64 : t -> string
val name32 : t -> string

(** System-V integer argument registers, in order:
    rdi, rsi, rdx, rcx, r8, r9. *)
val args : t list

val is_arg : t -> bool

(** Is this register callee-saved under the System-V ABI? *)
val is_callee_saved : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
