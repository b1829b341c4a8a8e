(** In-memory model of an ELF64 executable image.

    This is the interchange type between the synthetic compiler (which
    builds one) and the analysis side (which decodes one from bytes).
    Only the features that matter to function detection are modelled:
    sections with virtual addresses and contents, and the symbol table. *)

(** {1 Section flags (ELF [sh_flags] bits)} *)

val shf_write : int
val shf_alloc : int
val shf_execinstr : int

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

(** {1 Queries} *)

(** Section by name. *)
val section : t -> string -> section option

val has_section : t -> string -> bool
val executable : section -> bool
val alloc : section -> bool

(** Size in memory: the declared size of a [Nobits] section, the
    content length of any other.  Queries below read contents only, so
    they never answer inside a [Nobits] section. *)
val size : section -> int

(** All executable sections, lowest address first. *)
val exec_sections : t -> section list

(** [read t ~addr ~len] reads loaded image content at a virtual address. *)
val read : t -> addr:int -> len:int -> string option

(** Little-endian 8-byte read at a virtual address. *)
val read_u64 : t -> int -> int option

(** Is [addr] inside an executable section? *)
val in_exec_range : t -> int -> bool

(** Defined FUNC symbols — the set symbol-based tools start from. *)
val func_symbols : t -> symbol list

(** Remove the symbol table, as shipping stripped binaries do. *)
val strip : t -> t
