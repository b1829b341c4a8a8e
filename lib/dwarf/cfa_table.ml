(** Evaluation of CFI programs into unwinding-rule tables.

    Interpreting a CIE's initial instructions followed by an FDE's
    instructions yields one row per change point: at code offset [loc] the
    CFA is computed by [cfa] and each saved register by its rule.  This is
    the information source FETCH uses as a stack-height oracle (§V-B) and
    the unwinder uses for tasks T2/T3 (§III-B). *)

type cfa_rule =
  | Cfa_reg_offset of int * int  (** CFA = reg + offset (DWARF reg number) *)
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

let dw_rsp = 7
let dw_rbp = 6

type state = {
  mutable cfa : cfa_rule;
  mutable regs : (int * reg_rule) list;
}

(** [rows ~cie fde] interprets the CFI program; rows come back in
    increasing [loc] order, the first at [loc = 0]. *)
let rows ~(cie : Eh_frame.cie) (fde : Eh_frame.fde) =
  let exception Unsupported of string in
  let st = { cfa = Cfa_expr; regs = [] } in
  let initial_regs = ref [] in
  let stack = ref [] in
  let out = ref [] in
  let loc = ref 0 in
  let snapshot () = { loc = !loc; cfa = st.cfa; regs = st.regs } in
  let emit () =
    (* Replace any previous row at the same loc. *)
    match !out with
    | r :: rest when r.loc = !loc -> out := snapshot () :: rest
    | _ -> out := snapshot () :: !out
  in
  let set_reg r rule = st.regs <- (r, rule) :: List.remove_assoc r st.regs in
  let apply in_initial i =
    (match i with
    | Cfi.Advance_loc d -> loc := !loc + (d * cie.code_align)
    | Cfi.Def_cfa (r, o) -> st.cfa <- Cfa_reg_offset (r, o)
    | Cfi.Def_cfa_register r -> (
        match st.cfa with
        | Cfa_reg_offset (_, o) -> st.cfa <- Cfa_reg_offset (r, o)
        | Cfa_expr -> raise (Unsupported "def_cfa_register over expression"))
    | Cfi.Def_cfa_offset o -> (
        match st.cfa with
        | Cfa_reg_offset (r, _) -> st.cfa <- Cfa_reg_offset (r, o)
        | Cfa_expr -> raise (Unsupported "def_cfa_offset over expression"))
    | Cfi.Offset (r, fo) -> set_reg r (Saved_at_cfa (fo * cie.data_align))
    | Cfi.Restore r ->
        let rule =
          match List.assoc_opt r !initial_regs with
          | Some rl -> rl
          | None -> Same_value
        in
        set_reg r rule
    | Cfi.Same_value r -> set_reg r Same_value
    | Cfi.Undefined r -> set_reg r Undefined
    | Cfi.Register (a, b) -> set_reg a (In_register b)
    | Cfi.Remember_state -> stack := (st.cfa, st.regs) :: !stack
    | Cfi.Restore_state -> (
        match !stack with
        | (cfa, regs) :: rest ->
            st.cfa <- cfa;
            st.regs <- regs;
            stack := rest
        | [] -> raise (Unsupported "restore_state with empty stack"))
    | Cfi.Def_cfa_expression _ -> st.cfa <- Cfa_expr
    | Cfi.Expression (r, _) -> set_reg r Rule_expr
    | Cfi.Nop -> ());
    match i with
    | Cfi.Advance_loc _ | Cfi.Nop -> ()
    | _ -> if not in_initial then emit ()
  in
  match
    List.iter (apply true) cie.initial;
    initial_regs := st.regs;
    emit ();
    List.iter (apply false) fde.instrs
  with
  | () -> Ok (List.rev !out)
  | exception Unsupported m -> Error m

(** Row in effect at code offset [off]. *)
let row_at rows off =
  let rec go best = function
    | [] -> best
    | r :: rest -> if r.loc <= off then go (Some r) rest else best
  in
  go None rows

(** Stack height at code offset [off]: the number of bytes the stack has
    grown since function entry.  Defined only when the CFA is rsp-based at
    that point (height = cfa_offset - 8: at entry CFA = rsp + 8, height 0;
    height 0 means rsp points right below the return address, the tail-call
    precondition of Algorithm 1). *)
let row_height (row : row) =
  match row.cfa with
  | Cfa_reg_offset (r, o) when r = dw_rsp -> Some (o - 8)
  | Cfa_reg_offset _ | Cfa_expr -> None

let height_at rows off = Option.bind (row_at rows off) row_height

(** The paper's conservativeness test (§V-B): the CFI gives complete stack
    height information iff the CFA is always represented via rsp, starts as
    rsp + 8, and every change point carries an explicit offset (i.e. no row
    is rbp-based or expression-based). *)
let complete_rsp_heights (rows : row list) =
  match rows with
  | [] -> false
  | first :: _ ->
      (match first.cfa with
      | Cfa_reg_offset (r, 8) when r = dw_rsp -> true
      | Cfa_reg_offset _ | Cfa_expr -> false)
      && List.for_all
           (fun (r : row) ->
             match r.cfa with
             | Cfa_reg_offset (reg, _) -> reg = dw_rsp
             | Cfa_expr -> false)
           rows
