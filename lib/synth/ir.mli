(** Intermediate representation consumed by the synthetic compiler.

    A program is a list of functions; each function's body is a small
    structured statement language that the code generator lowers to
    x86-64.  The representation is deliberately shaped around the
    binary-level constructs the paper's analyses care about (tail calls,
    jump tables, non-contiguous hot/cold splits, assembly functions,
    noreturn calls, landing pads), not around source-level
    expressiveness. *)

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
          passes a zero first argument (the call returns), [false] passes
          a nonzero one (terminal statement) *)
  | Tail_call of string  (** epilogue + jmp: a true tail call *)
  | Try of stmt list * stmt list
      (** protected region and its landing-pad cleanup: the region gets an
          LSDA call-site entry; the landing pad is emitted out of normal
          control flow, reachable only through the unwinder *)
  | Cold_jump of stmt list
      (** conditional jump to the function's cold (out-of-line) part; at
          most one per function *)
  | Return

type frame_style =
  | Frameless  (** leaf-style: no stack adjustment at all *)
  | Rsp_frame of int  (** sub rsp, n; CFA stays rsp-based (complete CFI) *)
  | Rbp_frame of int
      (** push rbp; mov rbp,rsp; CFA re-based on rbp: CFI heights become
          incomplete in the §V-B sense *)

type func = {
  name : string;
  params : int;  (** argument registers live on entry *)
  frame : frame_style;
  saves : Fetch_x86.Reg.t list;  (** callee-saved registers pushed *)
  body : stmt list;
  is_assembly : bool;
  emit_fde : bool;
  broken_fde : bool;  (** Fig. 6b hand-broken FDE *)
  noreturn : bool;
  conditional_noreturn : bool;  (** glibc [error]-style *)
  entry_jump : bool;  (** rotated loop: first instruction is a jmp *)
  entry_nops : int;  (** hot-patch padding inside the entry *)
  align : int;
  endbr : bool;
}

val make_func :
  name:string ->
  ?params:int ->
  ?frame:frame_style ->
  ?saves:Fetch_x86.Reg.t list ->
  ?is_assembly:bool ->
  ?emit_fde:bool ->
  ?broken_fde:bool ->
  ?noreturn:bool ->
  ?conditional_noreturn:bool ->
  ?entry_jump:bool ->
  ?entry_nops:int ->
  ?align:int ->
  ?endbr:bool ->
  stmt list ->
  func

type program = {
  funcs : func list;  (** emission order = layout order of hot parts *)
  n_pointer_slots : int;  (** data slots holding function pointers *)
  pointer_inits : (int * string) list;  (** slot -> pointee *)
  strip_symbols : bool;
  object_size : int;  (** functions per synthetic object file (one CIE) *)
}

(** Does the statement list contain a call of any form (one that returns
    control, so a register live across it must be callee-saved)? *)
val stmts_have_call : stmt list -> bool

(** Does the body contain a counter loop whose body makes calls?  Such a
    counter is live across the calls, so the code generator keeps it in a
    callee-saved register — the function needs at least one save. *)
val stmts_have_call_loop : stmt list -> bool

(** All direct callees (including tail-call targets) of a body. *)
val callees : stmt list -> string list
