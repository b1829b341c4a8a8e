(** A loaded binary: the ELF image plus everything every analysis needs —
    the decode table of its executable sections, the parsed [.eh_frame],
    the CFI height oracle, FDE starts and symbol starts. *)

type t = {
  image : Fetch_elf.Image.t;
  exec : Fetch_elf.Image.section list;  (** executable sections, ascending *)
  oracle : Fetch_dwarf.Height_oracle.t;
  eh_frame : Fetch_dwarf.Eh_frame.decoded;
      (** total parse of [.eh_frame]: recovered CIEs plus the diagnostics
          and recovered-vs-skipped record counts *)
  fdes : Fetch_dwarf.Eh_frame.fde list;
  fde_starts : int list;  (** PC Begin of every FDE, ascending, deduped *)
  fde_start_array : int array;  (** [fde_starts], for {!fde_starting_at} *)
  symbol_starts : int list;  (** defined FUNC symbol addresses *)
  seeds : int list;
      (** [fde_starts] ∪ [symbol_starts], ascending, deduped: the seed
          set every recursive-descent tool starts from *)
  table : Fetch_x86.Insn_table.t;
      (** the executable sections' decode table: every walker reads
          instructions and their facts here, each address decoded once *)
  blocks : Fetch_x86.Block_table.t;
      (** the basic blocks over [table], built as walks reach them and
          shared by every recursive walk of this binary *)
  cache : (int, unit) Hashtbl.t;
      (** trace runs only: every address [table] decoded while
          {!Fetch_obs.Trace.enabled}, bound on its first decode, so its
          length counts the decodes of a traced run.  Empty outside one.
          Kept for fetchbench, which reads its length;
          {!Fetch_x86.Insn_table.decoded} counts the same in any run. *)
}

(** [load ?eh image] builds the analysis view.  [eh] substitutes an
    already-decoded [.eh_frame] for the decode stage, so a caller can
    time that decode as a layer of its own; it must be exactly what
    [Eh_frame.of_image image] returns.  Parse-health counters are
    replayed from the record either way. *)
val load : ?eh:Fetch_dwarf.Eh_frame.decoded -> Fetch_elf.Image.t -> t

(** The instruction at a virtual address and its length, read through
    [table]; [None] when there is none. *)
val insn_at : t -> int -> (Fetch_x86.Insn.t * int) option

(** Is the address inside an executable section? *)
val in_text : t -> int -> bool

(** Executable address ranges, ascending. *)
val text_ranges : t -> (int * int) list

(** [(lo, hi)] spanning all executable sections ([hi] exclusive), or
    [None] when there are none.  Coarse bound for pointer prefilters. *)
val text_bounds : t -> (int * int) option

(** Does an FDE begin exactly at the address?  O(log #FDE); every FDE
    counts, including those the height oracle drops. *)
val fde_starting_at : t -> int -> bool
