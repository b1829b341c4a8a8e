(** Intermediate representation consumed by the synthetic compiler.

    A program is a list of functions; each function's body is a small
    structured statement language that the code generator lowers to x86-64.
    The representation is deliberately shaped around the binary-level
    constructs the paper's analyses care about (tail calls, jump tables,
    non-contiguous hot/cold splits, assembly functions, noreturn calls),
    not around source-level expressiveness. *)

type stmt =
  | Compute of int  (** [n] ALU instructions over scratch registers *)
  | Call of string  (** direct call *)
  | Call_pointer of int  (** indirect call through data-slot [i] *)
  | Call_reg_pointer of string
      (** materialize the named function's address in a register (a code
          constant, visible to xref detection) and call through it *)
  | Store of int  (** write a scratch value to data slot [i] *)
  | If of stmt list * stmt list
  | Loop of int * stmt list  (** bounded counter loop *)
  | Switch of int * stmt list array  (** jump table over [n]-case switch *)
  | Call_noreturn of string
      (** call to a function that never returns: nothing is emitted after
          the call instruction (terminal statement) *)
  | Call_error of bool
      (** call to the [error]-like conditionally-noreturn function; [true]
          passes a zero first argument (the call returns), [false] passes a
          nonzero one (terminal statement, like glibc's [error(1, ...)]) *)
  | Tail_call of string  (** epilogue + jmp: a true tail call *)
  | Try of stmt list * stmt list
      (** protected region and its landing-pad cleanup: the region gets an
          LSDA call-site entry; the landing pad is emitted out of normal
          control flow, reachable only through the unwinder *)
  | Cold_jump of stmt list
      (** conditional jump to the function's cold (out-of-line) part; the
          cold part runs [stmts] and returns.  At most one per function. *)
  | Return

type frame_style =
  | Frameless  (** leaf-style: no stack adjustment at all *)
  | Rsp_frame of int  (** sub rsp, n; CFA stays rsp-based (complete CFI) *)
  | Rbp_frame of int
      (** push rbp; mov rbp,rsp; CFA re-based on rbp: CFI heights are
          incomplete in the §V-B sense *)

type func = {
  name : string;
  params : int;  (** how many System-V argument registers are live on entry *)
  frame : frame_style;
  saves : Fetch_x86.Reg.t list;  (** callee-saved registers pushed in prologue *)
  body : stmt list;
  is_assembly : bool;  (** hand-written assembly: exempt from ABI mandates *)
  emit_fde : bool;
  broken_fde : bool;
      (** Fig. 6b: the FDE's pc_begin points a few bytes before the real
          entry, into callconv-violating code, and uses expression CFI *)
  noreturn : bool;  (** never returns (ends in exit/abort path) *)
  conditional_noreturn : bool;
      (** like glibc's [error]: returns iff the first argument is zero *)
  entry_jump : bool;  (** first instruction jumps into the body (rotated
                          loop); defeats Ghidra's thunk heuristic *)
  entry_nops : int;  (** hot-patch NOP padding *inside* the function entry;
                         defeats angr's alignment heuristic *)
  align : int;  (** alignment of the entry, usually 16 *)
  endbr : bool;
}

let make_func ~name ?(params = 2) ?(frame = Frameless) ?(saves = [])
    ?(is_assembly = false) ?(emit_fde = true) ?(broken_fde = false)
    ?(noreturn = false) ?(conditional_noreturn = false) ?(entry_jump = false)
    ?(entry_nops = 0) ?(align = 16) ?(endbr = false) body =
  {
    name;
    params;
    frame;
    saves;
    body;
    is_assembly;
    emit_fde;
    broken_fde;
    noreturn;
    conditional_noreturn;
    entry_jump;
    entry_nops;
    align;
    endbr;
  }

type program = {
  funcs : func list;  (** emission order = layout order of hot parts *)
  n_pointer_slots : int;  (** data slots holding function pointers *)
  pointer_inits : (int * string) list;  (** slot -> function it points to *)
  strip_symbols : bool;
  object_size : int;  (** functions per synthetic object file (one CIE each) *)
}

(** Does the statement list contain a call of any form (one that returns
    control, so a register live across it must be callee-saved)? *)
let rec stmts_have_call stmts =
  List.exists
    (function
      | Call _ | Call_pointer _ | Call_reg_pointer _ | Call_noreturn _
      | Call_error _ ->
          true
      | If (a, b) -> stmts_have_call a || stmts_have_call b
      | Loop (_, s) -> stmts_have_call s
      | Try (a, b) -> stmts_have_call a || stmts_have_call b
      | Switch (_, cases) -> Array.exists stmts_have_call cases
      | Cold_jump s -> stmts_have_call s
      | Compute _ | Store _ | Tail_call _ | Return -> false)
    stmts

(** Does the body contain a counter loop whose body makes calls?  Such a
    counter is live across the calls, so the code generator keeps it in a
    callee-saved register — the function needs at least one save. *)
let rec stmts_have_call_loop stmts =
  List.exists
    (function
      | Loop (_, s) -> stmts_have_call s || stmts_have_call_loop s
      | If (a, b) -> stmts_have_call_loop a || stmts_have_call_loop b
      | Try (a, b) -> stmts_have_call_loop a || stmts_have_call_loop b
      | Switch (_, cases) -> Array.exists stmts_have_call_loop cases
      | Cold_jump s -> stmts_have_call_loop s
      | Compute _ | Call _ | Call_pointer _ | Call_reg_pointer _ | Store _
      | Call_noreturn _ | Call_error _ | Tail_call _ | Return ->
          false)
    stmts

(** All direct callees (including tail-call targets) of a body. *)
let rec callees stmts =
  List.concat_map
    (function
      | Call c -> [ c ]
      | Call_noreturn c -> [ c ]
      | Tail_call c -> [ c ]
      | Call_reg_pointer c -> [ c ]
      | If (a, b) -> callees a @ callees b
      | Loop (_, s) -> callees s
      | Try (a, b) -> callees a @ callees b
      | Switch (_, cases) -> List.concat_map callees (Array.to_list cases)
      | Cold_jump s -> callees s
      | Compute _ | Call_pointer _ | Call_error _ | Store _ | Return -> [])
    stmts
