(** DWARF Call Frame Instructions (the DW_CFA opcode family), the
    unwinding-rule bytecode inside CIE/FDE records (§III-C of the paper). *)

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

let to_string = function
  | Advance_loc d -> Printf.sprintf "DW_CFA_advance_loc: %d" d
  | Def_cfa (r, o) -> Printf.sprintf "DW_CFA_def_cfa: r%d ofs %d" r o
  | Def_cfa_register r -> Printf.sprintf "DW_CFA_def_cfa_register: r%d" r
  | Def_cfa_offset o -> Printf.sprintf "DW_CFA_def_cfa_offset: %d" o
  | Offset (r, o) -> Printf.sprintf "DW_CFA_offset: r%d at cfa%d" r (o * -8)
  | Restore r -> Printf.sprintf "DW_CFA_restore: r%d" r
  | Same_value r -> Printf.sprintf "DW_CFA_same_value: r%d" r
  | Undefined r -> Printf.sprintf "DW_CFA_undefined: r%d" r
  | Register (a, b) -> Printf.sprintf "DW_CFA_register: r%d in r%d" a b
  | Remember_state -> "DW_CFA_remember_state"
  | Restore_state -> "DW_CFA_restore_state"
  | Def_cfa_expression _ -> "DW_CFA_def_cfa_expression: <expr>"
  | Expression (r, _) -> Printf.sprintf "DW_CFA_expression: r%d <expr>" r
  | Nop -> "DW_CFA_nop"

open Fetch_util

let encode buf = function
  | Advance_loc d ->
      if d < 0 then invalid_arg "Cfi: negative advance";
      if d < 0x40 then Byte_buf.u8 buf (0x40 lor d)
      else if d < 0x100 then begin
        Byte_buf.u8 buf 0x02;
        Byte_buf.u8 buf d
      end
      else if d < 0x10000 then begin
        Byte_buf.u8 buf 0x03;
        Byte_buf.u16 buf d
      end
      else begin
        Byte_buf.u8 buf 0x04;
        Byte_buf.u32 buf d
      end
  | Def_cfa (r, o) ->
      Byte_buf.u8 buf 0x0c;
      Byte_buf.uleb128 buf r;
      Byte_buf.uleb128 buf o
  | Def_cfa_register r ->
      Byte_buf.u8 buf 0x0d;
      Byte_buf.uleb128 buf r
  | Def_cfa_offset o ->
      Byte_buf.u8 buf 0x0e;
      Byte_buf.uleb128 buf o
  | Offset (r, o) ->
      if r < 0x40 && o >= 0 then begin
        Byte_buf.u8 buf (0x80 lor r);
        Byte_buf.uleb128 buf o
      end
      else begin
        Byte_buf.u8 buf 0x05;
        Byte_buf.uleb128 buf r;
        Byte_buf.uleb128 buf o
      end
  | Restore r ->
      if r < 0x40 then Byte_buf.u8 buf (0xc0 lor r)
      else begin
        Byte_buf.u8 buf 0x06;
        Byte_buf.uleb128 buf r
      end
  | Same_value r ->
      Byte_buf.u8 buf 0x08;
      Byte_buf.uleb128 buf r
  | Undefined r ->
      Byte_buf.u8 buf 0x07;
      Byte_buf.uleb128 buf r
  | Register (a, b) ->
      Byte_buf.u8 buf 0x09;
      Byte_buf.uleb128 buf a;
      Byte_buf.uleb128 buf b
  | Remember_state -> Byte_buf.u8 buf 0x0a
  | Restore_state -> Byte_buf.u8 buf 0x0b
  | Def_cfa_expression e ->
      Byte_buf.u8 buf 0x0f;
      Byte_buf.uleb128 buf (String.length e);
      Byte_buf.string buf e
  | Expression (r, e) ->
      Byte_buf.u8 buf 0x10;
      Byte_buf.uleb128 buf r;
      Byte_buf.uleb128 buf (String.length e);
      Byte_buf.string buf e
  | Nop -> Byte_buf.u8 buf 0x00

(** Decode the single CFI at the cursor.  Unknown opcodes raise
    [Failure]; truncated operands raise [Byte_cursor.Out_of_bounds]. *)
let decode_one c =
  let op = Byte_cursor.u8 c in
  match op lsr 6 with
  | 1 -> Advance_loc (op land 0x3f)
  | 2 -> Offset (op land 0x3f, Byte_cursor.uleb128 c)
  | 3 -> Restore (op land 0x3f)
  | _ -> (
      match op with
      | 0x00 -> Nop
      | 0x02 -> Advance_loc (Byte_cursor.u8 c)
      | 0x03 -> Advance_loc (Byte_cursor.u16 c)
      | 0x04 -> Advance_loc (Byte_cursor.u32 c)
      | 0x05 ->
          let r = Byte_cursor.uleb128 c in
          let o = Byte_cursor.uleb128 c in
          Offset (r, o)
      | 0x06 -> Restore (Byte_cursor.uleb128 c)
      | 0x07 -> Undefined (Byte_cursor.uleb128 c)
      | 0x08 -> Same_value (Byte_cursor.uleb128 c)
      | 0x09 ->
          let a = Byte_cursor.uleb128 c in
          let b = Byte_cursor.uleb128 c in
          Register (a, b)
      | 0x0a -> Remember_state
      | 0x0b -> Restore_state
      | 0x0c ->
          let r = Byte_cursor.uleb128 c in
          let o = Byte_cursor.uleb128 c in
          Def_cfa (r, o)
      | 0x0d -> Def_cfa_register (Byte_cursor.uleb128 c)
      | 0x0e -> Def_cfa_offset (Byte_cursor.uleb128 c)
      | 0x0f ->
          let n = Byte_cursor.uleb128 c in
          Def_cfa_expression (Byte_cursor.string c n)
      | 0x10 ->
          let r = Byte_cursor.uleb128 c in
          let n = Byte_cursor.uleb128 c in
          Expression (r, Byte_cursor.string c n)
      | _ -> failwith (Printf.sprintf "Cfi.decode: unknown opcode %#x" op))

(** Decode all CFIs in [c] until exhaustion.  Unknown opcodes raise
    [Failure]. *)
let decode_all c =
  let out = ref [] in
  while not (Byte_cursor.eof c) do
    out := decode_one c :: !out
  done;
  List.rev !out

(** Total variant: decode as many CFIs as possible; stops at the first
    undecodable opcode (or truncated operand) and returns the prefix plus
    the error message, instead of raising. *)
let decode_prefix c =
  let out = ref [] in
  let err = ref None in
  (try
     while not (Byte_cursor.eof c) do
       out := decode_one c :: !out
     done
   with
  | Failure m -> err := Some m
  | Byte_cursor.Out_of_bounds _ -> err := Some "truncated CFI operand");
  (List.rev !out, !err)
