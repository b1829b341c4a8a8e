(** ELF64 encoder: serialize an {!Image.t} to a well-formed executable file.

    Layout: ELF header, program headers, section contents (in declaration
    order, each aligned and placed so that file offset and virtual address
    agree modulo the page size for loadable sections), then the section
    header table.  A [.shstrtab] is synthesized; when the image carries
    symbols a [.symtab]/[.strtab] pair is appended. *)

open Fetch_util

let page = 0x1000

let ehsize = 64
let phentsize = 56
let shentsize = 64

let sht_null = 0
let sht_progbits = 1
let sht_symtab = 2
let sht_strtab = 3
let sht_nobits = 8

let kind_code = function
  | Image.Progbits -> sht_progbits
  | Image.Nobits _ -> sht_nobits
  | Image.Symtab -> sht_symtab
  | Image.Strtab -> sht_strtab
  | Image.Other n -> n

(* A string table under construction: offsets of interned strings. *)
module Strtab = struct
  type t = { buf : Byte_buf.t; mutable index : (string * int) list }

  let create () =
    let buf = Byte_buf.create () in
    Byte_buf.u8 buf 0;
    { buf; index = [] }

  let intern t s =
    match List.assoc_opt s t.index with
    | Some off -> off
    | None ->
        let off = Byte_buf.length t.buf in
        Byte_buf.cstring t.buf s;
        t.index <- (s, off) :: t.index;
        off

  let contents t = Byte_buf.contents t.buf
end

let sym_info (s : Image.symbol) =
  let bind = match s.bind with Image.Local -> 0 | Global -> 1 | Weak -> 2 in
  let kind = match s.sym_kind with Image.Notype -> 0 | Object -> 1 | Func -> 2 in
  (bind lsl 4) lor kind

(* Build the .symtab section contents; [shndx_of_addr] resolves the section
   header index holding a given virtual address. *)
let build_symtab (img : Image.t) ~shndx_of_addr =
  let strtab = Strtab.create () in
  let buf = Byte_buf.create () in
  let emit name value size info shndx =
    Byte_buf.u32 buf (Strtab.intern strtab name);
    Byte_buf.u8 buf info;
    Byte_buf.u8 buf 0;
    (* st_other *)
    Byte_buf.u16 buf shndx;
    Byte_buf.u64 buf value;
    Byte_buf.u64 buf size
  in
  emit "" 0 0 0 0;
  (* Local symbols must precede globals; sort accordingly. *)
  let symbols =
    List.stable_sort
      (fun (a : Image.symbol) b ->
        compare (a.bind = Image.Local) (b.bind = Image.Local) * -1)
      img.symbols
  in
  let n_local =
    1 + List.length (List.filter (fun (s : Image.symbol) -> s.bind = Image.Local) symbols)
  in
  List.iter
    (fun (s : Image.symbol) ->
      let shndx = if s.defined then shndx_of_addr s.value else 0 in
      emit s.sym_name s.value s.size (sym_info s) shndx)
    symbols;
  (Byte_buf.contents buf, Strtab.contents strtab, n_local)

type placed = {
  p_name : string;
  p_kind : int;
  p_flags : int;
  p_addr : int;
  p_off : int;
  p_size : int;
  p_link : int;
  p_info : int;
  p_align : int;
  p_entsize : int;
  p_data : string option; (* None for NOBITS *)
}

let encode (img : Image.t) =
  (* Decide which extra sections we synthesize. *)
  let with_symtab = img.symbols <> [] in
  let shstrtab = Strtab.create () in
  (* Section header indexes: 0 = null, user sections, then synthesized. *)
  let user = img.sections in
  let n_user = List.length user in
  let idx_symtab = 1 + n_user in
  let idx_strtab = idx_symtab + 1 in
  let idx_shstrtab = if with_symtab then idx_strtab + 1 else 1 + n_user in
  let shnum = idx_shstrtab + 1 in
  let shndx_of_addr addr =
    let rec go i = function
      | [] -> 0
      | (s : Image.section) :: rest ->
          if
            s.flags land Image.shf_alloc <> 0
            && addr >= s.addr
            && addr <= s.addr + Image.size s
          then i
          else go (i + 1) rest
    in
    go 1 user
  in
  let symtab_data, strtab_data, symtab_info =
    if with_symtab then build_symtab img ~shndx_of_addr else ("", "", 0)
  in
  (* Lay out file offsets. *)
  let phdr_sections =
    List.filter (fun (s : Image.section) -> s.flags land Image.shf_alloc <> 0) user
  in
  let phnum = List.length phdr_sections in
  let cursor = ref (ehsize + (phnum * phentsize)) in
  let place (s : Image.section) =
    let align = max 1 s.addralign in
    (* Loadable sections keep offset ≡ vaddr (mod page) so a real loader
       could map them; others are just aligned. *)
    let off =
      if s.flags land Image.shf_alloc <> 0 && s.addr <> 0 then begin
        let target = s.addr mod page in
        let c = !cursor in
        let c = if c mod page <= target then c - (c mod page) + target else c - (c mod page) + page + target in
        c
      end
      else
        let c = !cursor in
        if c mod align = 0 then c else c + (align - (c mod align))
    in
    let size = Image.size s in
    let consumed = String.length s.data in
    cursor := off + consumed;
    {
      p_name = s.sec_name;
      p_kind = kind_code s.kind;
      p_flags = s.flags;
      p_addr = s.addr;
      p_off = off;
      p_size = size;
      p_link = 0;
      p_info = 0;
      p_align = align;
      p_entsize = s.entsize;
      p_data = (match s.kind with Image.Nobits _ -> None | _ -> Some s.data);
    }
  in
  let placed_user = List.map place user in
  let place_extra name kind data ~link ~info ~entsize =
    let off = !cursor in
    cursor := off + String.length data;
    {
      p_name = name;
      p_kind = kind;
      p_flags = 0;
      p_addr = 0;
      p_off = off;
      p_size = String.length data;
      p_link = link;
      p_info = info;
      p_align = 1;
      p_entsize = entsize;
      p_data = Some data;
    }
  in
  let placed_extra =
    if with_symtab then begin
      (* order matters: place_extra advances the layout cursor *)
      let p_symtab =
        place_extra ".symtab" sht_symtab symtab_data ~link:idx_strtab
          ~info:symtab_info ~entsize:24
      in
      let p_strtab =
        place_extra ".strtab" sht_strtab strtab_data ~link:0 ~info:0 ~entsize:0
      in
      [ p_symtab; p_strtab ]
    end
    else []
  in
  (* shstrtab: intern all names (including its own). *)
  let all_placed = placed_user @ placed_extra in
  List.iter (fun p -> ignore (Strtab.intern shstrtab p.p_name)) all_placed;
  ignore (Strtab.intern shstrtab ".shstrtab");
  let shstrtab_data = Strtab.contents shstrtab in
  let placed_shstr =
    place_extra ".shstrtab" sht_strtab shstrtab_data ~link:0 ~info:0 ~entsize:0
  in
  let all_placed = all_placed @ [ placed_shstr ] in
  (* Section header table goes last, 8-aligned. *)
  let shoff =
    let c = !cursor in
    if c mod 8 = 0 then c else c + (8 - (c mod 8))
  in
  let total = shoff + (shnum * shentsize) in
  let out = Byte_buf.create ~capacity:total () in
  (* ELF header *)
  Byte_buf.string out "\x7fELF";
  Byte_buf.u8 out 2;
  (* 64-bit *)
  Byte_buf.u8 out 1;
  (* little endian *)
  Byte_buf.u8 out 1;
  (* version *)
  Byte_buf.u8 out 0;
  (* System V *)
  Byte_buf.fill out ~count:8 ~byte:0;
  Byte_buf.u16 out 2;
  (* ET_EXEC *)
  Byte_buf.u16 out 0x3e;
  (* EM_X86_64 *)
  Byte_buf.u32 out 1;
  Byte_buf.u64 out img.entry;
  Byte_buf.u64 out ehsize;
  (* e_phoff *)
  Byte_buf.u64 out shoff;
  Byte_buf.u32 out 0;
  (* e_flags *)
  Byte_buf.u16 out ehsize;
  Byte_buf.u16 out phentsize;
  Byte_buf.u16 out phnum;
  Byte_buf.u16 out shentsize;
  Byte_buf.u16 out shnum;
  Byte_buf.u16 out idx_shstrtab;
  (* Program headers: one PT_LOAD per alloc section. *)
  List.iter2
    (fun (s : Image.section) p ->
      ignore s;
      (* Segment flags: R=4, W=2, X=1. *)
      let flags =
        4
        lor (if p.p_flags land Image.shf_write <> 0 then 2 else 0)
        lor if p.p_flags land Image.shf_execinstr <> 0 then 1 else 0
      in
      Byte_buf.u32 out 1;
      (* PT_LOAD *)
      Byte_buf.u32 out flags;
      Byte_buf.u64 out p.p_off;
      Byte_buf.u64 out p.p_addr;
      Byte_buf.u64 out p.p_addr;
      Byte_buf.u64 out p.p_size;
      Byte_buf.u64 out p.p_size;
      Byte_buf.u64 out page)
    phdr_sections
    (List.filter (fun p -> p.p_flags land Image.shf_alloc <> 0) placed_user);
  (* Section contents. *)
  List.iter
    (fun p ->
      match p.p_data with
      | None -> ()
      | Some data ->
          let here = Byte_buf.length out in
          if here > p.p_off then invalid_arg "Encode: layout overlap";
          Byte_buf.fill out ~count:(p.p_off - here) ~byte:0;
          Byte_buf.string out data)
    all_placed;
  (* Section header table. *)
  let here = Byte_buf.length out in
  Byte_buf.fill out ~count:(shoff - here) ~byte:0;
  let emit_sh ~name ~kind ~flags ~addr ~off ~size ~link ~info ~align ~entsize =
    Byte_buf.u32 out name;
    Byte_buf.u32 out kind;
    Byte_buf.u64 out flags;
    Byte_buf.u64 out addr;
    Byte_buf.u64 out off;
    Byte_buf.u64 out size;
    Byte_buf.u32 out link;
    Byte_buf.u32 out info;
    Byte_buf.u64 out align;
    Byte_buf.u64 out entsize
  in
  emit_sh ~name:0 ~kind:sht_null ~flags:0 ~addr:0 ~off:0 ~size:0 ~link:0
    ~info:0 ~align:0 ~entsize:0;
  List.iter
    (fun p ->
      emit_sh
        ~name:(Strtab.intern shstrtab p.p_name)
        ~kind:p.p_kind ~flags:p.p_flags ~addr:p.p_addr ~off:p.p_off
        ~size:p.p_size ~link:p.p_link ~info:p.p_info ~align:p.p_align
        ~entsize:p.p_entsize)
    all_placed;
  Byte_buf.contents out
