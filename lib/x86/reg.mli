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

(** {2 Register sets as masks}

    A set of registers is an [int] with bit [number r] set for each
    member [r]. *)

(** The one-register set. *)
val bit : t -> int

(** The set of the listed registers. *)
val mask : t list -> int

(** System-V integer argument registers: rdi, rsi, rdx, rcx, r8, r9. *)
val args_mask : int

(** Callee-saved registers under the System-V ABI: rbx, rbp, r12-r15. *)
val callee_saved_mask : int
val equal : t -> t -> bool
val compare : t -> t -> int
