(** Growable little-endian byte buffer with random-access patching.

    Used by every encoder in the project (ELF sections, x86 machine code,
    DWARF CFI).  Values are appended at the end; previously written bytes can
    be patched in place, which is how label/relocation fixups are resolved. *)

type t = {
  mutable data : Bytes.t;
  mutable len : int;
}

let create ?(capacity = 64) () =
  { data = Bytes.create (max capacity 16); len = 0 }

let length t = t.len

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.data then begin
    let cap = ref (Bytes.length t.data) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let data = Bytes.create !cap in
    Bytes.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let u8 t v =
  ensure t 1;
  Bytes.unsafe_set t.data t.len (Char.chr (v land 0xff));
  t.len <- t.len + 1

let u16 t v =
  ensure t 2;
  Bytes.set_uint16_le t.data t.len (v land 0xffff);
  t.len <- t.len + 2

let u32 t v =
  ensure t 4;
  Bytes.set_int32_le t.data t.len (Int32.of_int (v land 0xffffffff));
  t.len <- t.len + 4

let u64 t v =
  ensure t 8;
  Bytes.set_int64_le t.data t.len (Int64.of_int v);
  t.len <- t.len + 8

let i8 t v = u8 t (v land 0xff)
let i16 t v = u16 t (v land 0xffff)
let i32 t v = u32 t (v land 0xffffffff)

let i64 t v =
  ensure t 8;
  Bytes.set_int64_le t.data t.len v;
  t.len <- t.len + 8

let bytes t b =
  ensure t (Bytes.length b);
  Bytes.blit b 0 t.data t.len (Bytes.length b);
  t.len <- t.len + Bytes.length b

let string t s =
  ensure t (String.length s);
  Bytes.blit_string s 0 t.data t.len (String.length s);
  t.len <- t.len + String.length s

let cstring t s =
  string t s;
  u8 t 0

let fill t ~count ~byte =
  ensure t count;
  Bytes.fill t.data t.len count (Char.chr (byte land 0xff));
  t.len <- t.len + count

let pad_to t ~align ~byte =
  let rem = t.len mod align in
  if rem <> 0 then fill t ~count:(align - rem) ~byte

let patch_u32 t ~at v =
  if at < 0 || at + 4 > t.len then invalid_arg "Byte_buf.patch_u32";
  Bytes.set_int32_le t.data at (Int32.of_int (v land 0xffffffff))

let patch_u64 t ~at v =
  if at < 0 || at + 8 > t.len then invalid_arg "Byte_buf.patch_u64";
  Bytes.set_int64_le t.data at (Int64.of_int v)

let contents t = Bytes.sub_string t.data 0 t.len

(* ULEB128 / SLEB128, as used throughout DWARF. *)

let uleb128 t v =
  if v < 0 then invalid_arg "Byte_buf.uleb128: negative";
  let rec go v =
    let b = v land 0x7f in
    let v = v lsr 7 in
    if v = 0 then u8 t b
    else begin
      u8 t (b lor 0x80);
      go v
    end
  in
  go v

let sleb128 t v =
  let rec go v =
    let b = v land 0x7f in
    let v = v asr 7 in
    let sign_clear = b land 0x40 = 0 in
    if (v = 0 && sign_clear) || (v = -1 && not sign_clear) then u8 t b
    else begin
      u8 t (b lor 0x80);
      go v
    end
  in
  go v
