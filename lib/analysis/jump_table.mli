(** Bounded-pattern jump-table resolution, in the style of DYNINST's
    backward slicing (§IV-C, construct 1): the only indirect jumps the
    safe analyses follow are those proven to dispatch through a
    bounds-checked table, and then only to the table's entries.

    Recognized shapes (GCC-style absolute tables and Clang/PIC-style
    offset tables):

    {v
      cmp idx, N ; ja default ; jmp [table + idx*8]
      cmp idx, N ; ja default ; mov r, [table + idx*8] ; jmp r
      cmp idx, N ; ja default ; lea rt, [rip+table] ;
          movsxd rx, [rt + idx*4] ; add rx, rt ; jmp rx
    v} *)

type resolved = { table_addr : int; targets : int list }

(** How many instructions before the dispatch jump {!resolve} reads. *)
val window : int

(** [resolve image ~preceding operand] slices backwards through
    [preceding] (the reversed (addr, len, insn) window before the dispatch
    jump, across block boundaries) and reads the table from the image.  Every entry
    must land in executable memory or the whole dispatch is rejected. *)
val resolve :
  Fetch_elf.Image.t ->
  preceding:(int * int * Fetch_x86.Insn.t) list ->
  Fetch_x86.Insn.operand ->
  resolved option
