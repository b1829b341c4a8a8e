(** Evaluation of CFI programs into unwinding-rule tables.

    Interpreting a CIE's initial instructions followed by an FDE's
    instructions yields one row per change point: at code offset [loc]
    the CFA is computed by [cfa] and each saved register by its rule.
    This is the information source FETCH uses as a stack-height oracle
    (§V-B) and the unwinder uses for tasks T2/T3 (§III-B). *)

type cfa_rule =
  | Cfa_reg_offset of int * int  (** CFA = reg + offset (DWARF number) *)
  | Cfa_expr  (** defined by a DWARF expression: opaque to the analyses *)

type reg_rule =
  | Same_value
  | Saved_at_cfa of int  (** stored at CFA + offset (bytes, unfactored) *)
  | In_register of int
  | Undefined
  | Rule_expr

type row = {
  loc : int;  (** code offset (bytes from pc_begin) where the row starts *)
  cfa : cfa_rule;
  regs : (int * reg_rule) list;  (** DWARF reg number -> rule *)
}

(** DWARF numbers of rsp (7) and rbp (6). *)
val dw_rsp : int

val dw_rbp : int

(** Interpret the CFI program; rows come back in increasing [loc] order,
    the first at [loc = 0].  [Error] names a rule combination outside the
    DWARF subset compilers emit: [def_cfa_register] or [def_cfa_offset]
    over an expression CFA, or [restore_state] with nothing
    remembered. *)
val rows : cie:Eh_frame.cie -> Eh_frame.fde -> (row list, string) result

(** Row in effect at a code offset. *)
val row_at : row list -> int -> row option

(** Stack height at a code offset: bytes the stack has grown since
    function entry.  Defined only where the CFA is rsp-based (height =
    cfa_offset - 8; height 0 means rsp points right below the return
    address — the tail-call precondition of Algorithm 1). *)
val height_at : row list -> int -> int option

(** {!height_at} in effect from one row on. *)
val row_height : row -> int option

(** The paper's conservativeness test (§V-B): the CFI gives complete
    stack-height information iff the CFA starts as rsp + 8 and stays
    rsp-based with explicit offsets at every change point. *)
val complete_rsp_heights : row list -> bool
