(** ELF64 decoder: parse bytes produced by {!Encode} (or any well-formed
    little-endian ELF64 file) back into an {!Image.t}. *)

open Fetch_util

type error = string

let ( let* ) = Result.bind

let guard cond msg = if cond then Ok () else Error msg

type raw_sh = {
  rs_name : int;
  rs_kind : int;
  rs_flags : int;
  rs_addr : int;
  rs_off : int;
  rs_size : int;
  rs_link : int;
  rs_entsize : int;
  rs_align : int;
}

let read_sh c =
  let rs_name = Byte_cursor.u32 c in
  let rs_kind = Byte_cursor.u32 c in
  let rs_flags = Byte_cursor.u64 c in
  let rs_addr = Byte_cursor.u64 c in
  let rs_off = Byte_cursor.u64 c in
  let rs_size = Byte_cursor.u64 c in
  let rs_link = Byte_cursor.u32 c in
  let _info = Byte_cursor.u32 c in
  let rs_align = Byte_cursor.u64 c in
  let rs_entsize = Byte_cursor.u64 c in
  { rs_name; rs_kind; rs_flags; rs_addr; rs_off; rs_size; rs_link; rs_entsize; rs_align }

let kind_of rs =
  match rs.rs_kind with
  | 1 -> Image.Progbits
  | 2 -> Image.Symtab
  | 3 -> Image.Strtab
  | 8 -> Image.Nobits rs.rs_size
  | n -> Image.Other n

let strtab_get data off =
  if off >= String.length data then ""
  else
    match String.index_from_opt data off '\000' with
    | Some e -> String.sub data off (e - off)
    | None -> String.sub data off (String.length data - off)

let decode_symbols ~symtab_data ~strtab_data =
  let c = Byte_cursor.of_string symtab_data in
  let syms = ref [] in
  (try
     while Byte_cursor.remaining c >= 24 do
       let name_off = Byte_cursor.u32 c in
       let info = Byte_cursor.u8 c in
       let _other = Byte_cursor.u8 c in
       let shndx = Byte_cursor.u16 c in
       let value = Byte_cursor.u64 c in
       let size = Byte_cursor.u64 c in
       let name = strtab_get strtab_data name_off in
       let bind =
         match info lsr 4 with 1 -> Image.Global | 2 -> Image.Weak | _ -> Image.Local
       in
       let sym_kind =
         match info land 0xf with 2 -> Image.Func | 1 -> Image.Object | _ -> Image.Notype
       in
       if name <> "" || value <> 0 then
         syms :=
           { Image.sym_name = name; value; size; sym_kind; bind; defined = shndx <> 0 }
           :: !syms
     done
   with Byte_cursor.Out_of_bounds _ -> ());
  List.rev !syms

let decode (raw : string) : (Image.t, error) result =
  let len = String.length raw in
  let* () = guard (len >= 64) "file too short for ELF header" in
  let* () = guard (String.sub raw 0 4 = "\x7fELF") "bad ELF magic" in
  let* () = guard (raw.[4] = '\002') "not ELFCLASS64" in
  let* () = guard (raw.[5] = '\001') "not little-endian" in
  let c = Byte_cursor.of_string raw in
  Byte_cursor.seek c 16;
  let _etype = Byte_cursor.u16 c in
  let machine = Byte_cursor.u16 c in
  let* () = guard (machine = 0x3e) "not an x86-64 binary" in
  let _version = Byte_cursor.u32 c in
  let entry = Byte_cursor.u64 c in
  let _phoff = Byte_cursor.u64 c in
  let shoff = Byte_cursor.u64 c in
  let _flags = Byte_cursor.u32 c in
  let _ehsize = Byte_cursor.u16 c in
  let _phentsize = Byte_cursor.u16 c in
  let _phnum = Byte_cursor.u16 c in
  let shentsize = Byte_cursor.u16 c in
  let shnum = Byte_cursor.u16 c in
  let shstrndx = Byte_cursor.u16 c in
  let* () = guard (shentsize = 64) "unexpected e_shentsize" in
  let* () = guard (shoff + (shnum * 64) <= len) "section header table out of range" in
  let* () = guard (shstrndx < shnum) "e_shstrndx out of range" in
  try
    let shs =
      Array.init shnum (fun i ->
          Byte_cursor.seek c (shoff + (i * 64));
          read_sh c)
    in
    (* a NOBITS section occupies no file bytes, and its declared size
       comes from the input: it must not size an allocation *)
    let body rs =
      if rs.rs_kind = 8 then ""
      else if rs.rs_off + rs.rs_size > len then
        invalid_arg "section body out of range"
      else String.sub raw rs.rs_off rs.rs_size
    in
    let shstr = body shs.(shstrndx) in
    let name rs = strtab_get shstr rs.rs_name in
    let sections = ref [] in
    let symbols = ref [] in
    Array.iteri
      (fun i rs ->
        if i = 0 || i = shstrndx then ()
        else
          match kind_of rs with
          | Image.Symtab ->
              let strtab_data =
                if rs.rs_link < shnum then body shs.(rs.rs_link) else ""
              in
              symbols := decode_symbols ~symtab_data:(body rs) ~strtab_data
          | Image.Strtab when name rs = ".strtab" -> ()
          | kind ->
              sections :=
                {
                  Image.sec_name = name rs;
                  kind;
                  flags = rs.rs_flags;
                  addr = rs.rs_addr;
                  data = body rs;
                  addralign = rs.rs_align;
                  entsize = rs.rs_entsize;
                }
                :: !sections)
      shs;
    Ok { Image.entry; sections = List.rev !sections; symbols = !symbols }
  with
  | Invalid_argument msg -> Error msg
  | Byte_cursor.Out_of_bounds _ -> Error "truncated ELF structure"
