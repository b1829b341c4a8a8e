(** The [.eh_frame] section: a list of CIEs, each carrying FDEs (§III-C).

    Encoding follows the Linux Standard Base / GCC conventions: 32-bit
    length fields, CIE version 1 with augmentation ["zR"] (plus ["P"] for
    a personality routine and ["L"] for language-specific data areas in
    C++-style objects), pcrel+sdata4 pointer encoding, records padded to
    8 bytes with DW_CFA_nop, terminated by a zero-length entry. *)

type fde = {
  pc_begin : int;  (** virtual address of the first covered byte *)
  pc_range : int;  (** length of the covered region in bytes *)
  lsda : int option;  (** language-specific data area (C++ landing pads) *)
  instrs : Cfi.instr list;
}

type cie = {
  code_align : int;
  data_align : int;
  ra_reg : int;  (** return-address column; 16 on x86-64 *)
  personality : int option;  (** personality routine address *)
  initial : Cfi.instr list;  (** initial unwinding rules *)
  fdes : fde list;
}

val make_fde : ?lsda:int -> pc_begin:int -> pc_range:int -> Cfi.instr list -> fde

(** The CIE GCC emits for x86-64: CFA = rsp + 8, return address at
    CFA - 8. *)
val default_cie : ?personality:int -> ?fdes:fde list -> unit -> cie

(** All FDEs of all CIEs, in input order. *)
val all_fdes : cie list -> fde list

(** [encode ~addr cies] serializes the section as if loaded at virtual
    address [addr] (needed for pcrel pointer encodings).  [format64]
    (default false) emits 64-bit DWARF records: [0xffffffff] marker,
    8-byte length, 8-byte CIE id / pointer. *)
val encode : ?format64:bool -> addr:int -> cie list -> string

(** Like {!encode}, and also returns each FDE's [pc_begin] paired with the
    virtual address of its record — the contents of [.eh_frame_hdr]'s
    binary-search table. *)
val encode_with_index :
  ?format64:bool -> addr:int -> cie list -> string * (int * int) list

(** Result of a total decode: whatever could be recovered, plus one
    structured diagnostic per problem found.  [records_ok] counts the
    CIE and FDE records decoded in full; [records_skipped] those dropped
    by per-record recovery ([= ] the number of fatal diags). *)
type decoded = {
  cies : cie list;
  diags : Diag.t list;  (** ascending offset *)
  records_ok : int;
  records_skipped : int;
  indirect_derefs : int;
      (** how many DW_EH_PE_indirect pointers were resolved: a decode
          that followed any read other sections too, so it is not a pure
          function of the section's (address, bytes) pair *)
}

(** Inverse of {!encode} — and **total**: no input byte string makes it
    raise.  Each length-delimited record is decoded inside its own
    boundary; a record that cannot be decoded (unknown CIE, unsupported
    encoding, truncation, garbage) is skipped — resynchronizing at
    [record_start + 4 + length] — and reported in [diags] instead of
    poisoning the rest of the section.

    Accepts the common GCC/LLVM variations: CIE versions 1/3/4, 32- and
    64-bit DWARF record formats (the latter recognized by the
    [0xffffffff] length marker), [z*]
    augmentations ([R], [P], [L], [S], [B]; unknown characters are
    skipped via the ['z'] length), the legacy ["eh"] augmentation, and
    the full DW_EH_PE menu — absptr/uleb128/sleb128/udata2..8/sdata2..8
    formats, abs/pcrel/datarel applications, the [indirect] flag
    (dereferenced through [deref] when given, e.g.
    {!Fetch_elf.Image.read_u64}) and [omit].  [ptr_width] (default 8)
    sets the byte width of [absptr] pointers. *)
val decode :
  ?ptr_width:int -> ?deref:(int -> int option) -> addr:int -> string -> decoded

(** Decode the [.eh_frame] section of an ELF image (empty if absent);
    indirect pointers are dereferenced through the image. *)
val of_image : Fetch_elf.Image.t -> decoded
