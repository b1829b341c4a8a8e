(** A loaded binary: the ELF image plus everything every analysis needs —
    decoded (and memoized) instructions, the parsed [.eh_frame], the CFI
    height oracle, FDE starts and symbol starts. *)

type t = {
  image : Fetch_elf.Image.t;
  exec : Fetch_elf.Image.section list;  (** executable sections, ascending *)
  oracle : Fetch_dwarf.Height_oracle.t;
  eh_frame : Fetch_dwarf.Eh_frame.decoded;
      (** total parse of [.eh_frame]: recovered CIEs plus the diagnostics
          and recovered-vs-skipped record counts *)
  fdes : Fetch_dwarf.Eh_frame.fde list;
  fde_starts : int list;  (** PC Begin of every FDE, ascending, deduped *)
  symbol_starts : int list;  (** defined FUNC symbol addresses *)
  cache : (int, (Fetch_x86.Insn.t * int) option) Hashtbl.t;
}

(** [load ?eh image] builds the analysis view.  [eh] substitutes an
    already-decoded [.eh_frame] for the decode stage (the serve cache's
    second-level hit); it must be exactly what [Eh_frame.of_image image]
    would return — decodes that followed [DW_EH_PE_indirect] pointers
    ([indirect_derefs > 0]) read other sections and are not safe to
    substitute across binaries.  Parse-health counters are replayed
    from the record either way. *)
val load : ?eh:Fetch_dwarf.Eh_frame.decoded -> Fetch_elf.Image.t -> t

(** Decode (memoized) the instruction at a virtual address. *)
val insn_at : t -> int -> (Fetch_x86.Insn.t * int) option

(** Is the address inside an executable section? *)
val in_text : t -> int -> bool

(** Executable address ranges, ascending. *)
val text_ranges : t -> (int * int) list

(** [(lo, hi)] spanning all executable sections ([hi] exclusive), or
    [None] when there are none.  Coarse bound for pointer prefilters. *)
val text_bounds : t -> (int * int) option

(** Does an FDE begin exactly at the address? *)
val fde_starting_at : t -> int -> bool
