(** In-memory model of an ELF64 executable image.

    This is the interchange type between the synthetic compiler (which
    builds one) and the analysis side (which decodes one from bytes).  Only
    the features that matter to function detection are modelled: sections
    with virtual addresses and contents, and the symbol table. *)

(* Section flag bits, as in the ELF spec. *)
let shf_write = 0x1
let shf_alloc = 0x2
let shf_execinstr = 0x4

type section_kind =
  | Progbits
  | Nobits of int  (** declared [sh_size]; the section has no contents *)
  | Symtab
  | Strtab
  | Other of int

type section = {
  sec_name : string;
  kind : section_kind;
  flags : int;
  addr : int;  (** virtual address; 0 for non-alloc sections *)
  data : string;  (** contents; empty for [Nobits] *)
  addralign : int;
  entsize : int;
}

type sym_kind = Func | Object | Notype

type binding = Local | Global | Weak

type symbol = {
  sym_name : string;
  value : int;
  size : int;
  sym_kind : sym_kind;
  bind : binding;
  defined : bool;  (** false for SHN_UNDEF imports *)
}

type t = {
  entry : int;
  sections : section list;
  symbols : symbol list;
}

let section t name = List.find_opt (fun s -> s.sec_name = name) t.sections

let has_section t name = Option.is_some (section t name)

let executable s = s.flags land shf_execinstr <> 0

let alloc s = s.flags land shf_alloc <> 0

let size s = match s.kind with Nobits n -> n | _ -> String.length s.data

(** All executable sections, lowest address first. *)
let exec_sections t =
  List.filter executable t.sections
  |> List.sort (fun a b -> compare a.addr b.addr)

(** Section whose [\[addr, addr+len)] range contains [addr]. *)
let section_at t addr =
  List.find_opt
    (fun s ->
      s.flags land shf_alloc <> 0
      && addr >= s.addr
      && addr < s.addr + String.length s.data)
    t.sections

(** Read [len] bytes of loaded image content at virtual address [addr]. *)
let read t ~addr ~len =
  match section_at t addr with
  | Some s when addr + len <= s.addr + String.length s.data ->
      Some (String.sub s.data (addr - s.addr) len)
  | Some _ | None -> None

let read_u64 t addr =
  match read t ~addr ~len:8 with
  | Some s -> Some (Int64.to_int (String.get_int64_le s 0))
  | None -> None

let in_exec_range t addr =
  List.exists
    (fun s -> addr >= s.addr && addr < s.addr + String.length s.data)
    (exec_sections t)

(** Function symbols (defined, [Func] kind), the set tools start from. *)
let func_symbols t =
  List.filter (fun s -> s.sym_kind = Func && s.defined) t.symbols

(** Remove the symbol table, as shipping stripped binaries do. *)
let strip t =
  {
    t with
    symbols = [];
    sections =
      List.filter
        (fun s -> s.kind <> Symtab && s.sec_name <> ".strtab")
        t.sections;
  }
