(** DWARF Call Frame Instructions (the DW_CFA opcode family), the
    unwinding-rule bytecode inside CIE/FDE records (§III-C of the
    paper). *)

type instr =
  | Advance_loc of int  (** code offset delta, in code-alignment units *)
  | Def_cfa of int * int  (** CFA := reg + offset *)
  | Def_cfa_register of int
  | Def_cfa_offset of int
  | Offset of int * int  (** reg saved at CFA + factored_offset * data_align *)
  | Restore of int
  | Same_value of int
  | Undefined of int
  | Register of int * int  (** reg1 saved in reg2 *)
  | Remember_state
  | Restore_state
  | Def_cfa_expression of string  (** raw DWARF expression bytes *)
  | Expression of int * string  (** reg rule is a DWARF expression *)
  | Nop

(** Readable rendering in readelf style, with the x86-64 CIE's
    alignment factors (code 1, data -8). *)
val to_string : instr -> string

(** Append the encoding of one instruction. *)
val encode : Fetch_util.Byte_buf.t -> instr -> unit

(** Decode instructions until the cursor is exhausted; raises [Failure]
    on an unknown opcode. *)
val decode_all : Fetch_util.Byte_cursor.t -> instr list

(** Total variant of {!decode_all}: decodes as many instructions as
    possible and never raises.  Returns the decoded prefix, paired with
    [Some error] if an undecodable opcode (or truncated operand) stopped
    the decode early. *)
val decode_prefix : Fetch_util.Byte_cursor.t -> instr list * string option
