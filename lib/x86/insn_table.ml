(** One flat decode table per binary — see the interface for the layout
    and the fill-once rule. *)

type t = {
  map : Fetch_util.Offset_map.t;
  slot_of : Bytes.t;
      (** one native-endian int32 per offset of [map]: [0] not decoded yet,
          [-1] no instruction there, [k + 1] slot [k] *)
  decode : int -> (Insn.t * int) option;
  mutable decoded : int;
  mutable count : int;
  mutable insns : Insn.t array;
  mutable info : int array;
      (** [len lor (uses lsl 4) lor (defs lsl 20) lor ((block + 1) lsl
          36)]: an instruction is at most 15 bytes and a register mask 16
          bits *)
}

let create ~decode ranges =
  let map = Fetch_util.Offset_map.create ranges in
  {
    map;
    slot_of = Bytes.make (4 * Fetch_util.Offset_map.size map) '\000';
    decode;
    decoded = 0;
    count = 0;
    insns = [||];
    info = [||];
  }

let offset t addr = Fetch_util.Offset_map.offset t.map addr
let in_text t addr = offset t addr >= 0

(* Slot arrays start at one slot per four bytes, about what a walk of
   ordinary code decodes, and double, capped at one slot per byte: every
   slot is a distinct offset. *)
let grow t =
  let bytes = Bytes.length t.slot_of / 4 in
  let cap =
    if t.count = 0 then max 16 (bytes / 4)
    else min bytes (2 * Array.length t.insns)
  in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.count;
    b
  in
  t.insns <- extend t.insns Insn.Ret;
  t.info <- extend t.info 0

let fill t off addr =
  t.decoded <- t.decoded + 1;
  match t.decode addr with
  | None ->
      Bytes.set_int32_ne t.slot_of (4 * off) (-1l);
      -1
  | Some (insn, len) ->
      if len < 1 || len > 15 then invalid_arg "Insn_table: instruction length";
      let s = t.count in
      if s = Array.length t.insns then grow t;
      t.insns.(s) <- insn;
      t.info.(s) <-
        len
        lor (Semantics.uses_mask insn lsl 4)
        lor (Semantics.defs insn lsl 20);
      t.count <- s + 1;
      Bytes.set_int32_ne t.slot_of (4 * off) (Int32.of_int (s + 1));
      s

let find t addr =
  let off = offset t addr in
  if off < 0 then -1
  else
    let v = Int32.to_int (Bytes.get_int32_ne t.slot_of (4 * off)) in
    if v > 0 then v - 1 else if v < 0 then -1 else fill t off addr

let insn t s = t.insns.(s)
let len t s = t.info.(s) land 0xf
let flow t s = Semantics.flow t.insns.(s)
let uses t s = (t.info.(s) lsr 4) land 0xffff
let defs t s = (t.info.(s) lsr 20) land 0xffff
let block t s = (t.info.(s) lsr 36) - 1
let set_block t s k = t.info.(s) <- (t.info.(s) land ((1 lsl 36) - 1)) lor ((k + 1) lsl 36)
let decoded t = t.decoded
