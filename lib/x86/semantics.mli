(** Per-instruction semantic summaries used by the analyses: control
    flow, stack-pointer effect, and register use/def sets. *)

(** A control-flow destination after decoding: direct targets are
    absolute addresses, indirect ones carry the operand for jump-table
    analysis. *)
type dest = Direct of int | Indirect of Insn.operand

type flow =
  | Fall  (** execution continues at the next instruction only *)
  | Jump of dest
  | Cond of int  (** taken target; also falls through *)
  | Callf of dest
  | Ret
  | Halt  (** ud2 / hlt / int3: execution cannot continue *)

(** Classify a decoded instruction (targets must be [To_addr]; raises
    [Invalid_argument] on unresolved labels). *)
val flow : Insn.t -> flow

(** Effect on [rsp], in bytes ([Some d] means rsp += d); [None] when the
    instruction writes rsp in a way static analysis cannot track without
    more context ([leave], [mov rsp, ...]).  Calls are [Some 0]: the net
    effect the caller observes after the callee returns. *)
val sp_delta : Insn.t -> int option

(** Registers read by the instruction, for the calling-convention check
    of §IV-E, in operand order.  [push reg] is treated as a save, not a
    use; reads of [rsp] are never reported; [xor r, r] is the zeroing
    idiom and reads nothing. *)
val uses : Insn.t -> Reg.t list

(** {!uses} as a register mask ({!Reg.mask}). *)
val uses_mask : Insn.t -> int

(** Registers fully (re)defined by the instruction, as a register mask
    (32-bit writes zero the upper half, so they count). *)
val defs : Insn.t -> int
