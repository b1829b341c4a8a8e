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

let all =
  [| Rax; Rcx; Rdx; Rbx; Rsp; Rbp; Rsi; Rdi; R8; R9; R10; R11; R12; R13; R14; R15 |]

(** Hardware encoding number (0–15), as used in ModRM/SIB/REX. *)
let number = function
  | Rax -> 0
  | Rcx -> 1
  | Rdx -> 2
  | Rbx -> 3
  | Rsp -> 4
  | Rbp -> 5
  | Rsi -> 6
  | Rdi -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | R12 -> 12
  | R13 -> 13
  | R14 -> 14
  | R15 -> 15

let of_number n =
  if n < 0 || n > 15 then invalid_arg "Reg.of_number";
  all.(n)

(** DWARF register number, as used in CFI (note rsp = 7, rbp = 6). *)
let dwarf_number = function
  | Rax -> 0
  | Rdx -> 1
  | Rcx -> 2
  | Rbx -> 3
  | Rsi -> 4
  | Rdi -> 5
  | Rbp -> 6
  | Rsp -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | R12 -> 12
  | R13 -> 13
  | R14 -> 14
  | R15 -> 15

let name64 = function
  | Rax -> "rax"
  | Rcx -> "rcx"
  | Rdx -> "rdx"
  | Rbx -> "rbx"
  | Rsp -> "rsp"
  | Rbp -> "rbp"
  | Rsi -> "rsi"
  | Rdi -> "rdi"
  | R8 -> "r8"
  | R9 -> "r9"
  | R10 -> "r10"
  | R11 -> "r11"
  | R12 -> "r12"
  | R13 -> "r13"
  | R14 -> "r14"
  | R15 -> "r15"

let name32 = function
  | Rax -> "eax"
  | Rcx -> "ecx"
  | Rdx -> "edx"
  | Rbx -> "ebx"
  | Rsp -> "esp"
  | Rbp -> "ebp"
  | Rsi -> "esi"
  | Rdi -> "edi"
  | r -> name64 r ^ "d"

(** A register set as a 16-bit mask: bit [number r] stands for [r]. *)
let bit r = 1 lsl number r

let mask rs = List.fold_left (fun m r -> m lor bit r) 0 rs

(** System-V integer argument registers. *)
let args_mask = mask [ Rdi; Rsi; Rdx; Rcx; R8; R9 ]

(** Callee-saved registers under the System-V ABI. *)
let callee_saved_mask = mask [ Rbx; Rbp; R12; R13; R14; R15 ]

let equal (a : t) b = a = b
let compare (a : t) b = compare (number a) (number b)
