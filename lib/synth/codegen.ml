(** Lowering from {!Ir} to x86-64 assembly items plus CFI events.

    The generator mirrors how real compilers shape code: prologues push
    callee-saved registers and adjust rsp (with matching DW_CFA records),
    cold parts are emitted out of line in a separate region with their own
    FDE, tail calls restore the frame before the jump, switch statements
    become bounds-checked jump-table dispatches, and calls to noreturn
    functions are not followed by any code.

    CFI bookkeeping: every stack-affecting instruction is followed by a
    fresh label; the event list pairs each label with the DW_CFA
    instructions that take effect there.  {!Link} converts label addresses
    into DW_CFA_advance_loc deltas once the code is laid out. *)

open Fetch_x86
open Ir
module I = Insn

type cfi_event = { at : string; cfi : Fetch_dwarf.Cfi.instr list }

type fn_out = {
  fn : Ir.func;
  start_label : string;
  end_label : string;
  fde_label : string;  (** = start_label except for broken FDEs *)
  events : cfi_event list;  (** hot-part CFI, in emission order *)
  cold : (string * string) option;  (** cold part start/end labels *)
  cold_initial : Fetch_dwarf.Cfi.instr list;  (** CFI state at cold entry *)
  cold_events : cfi_event list;
  try_sites : (string * string * string) list;
      (** (region start, region end, landing pad) labels for the LSDA *)
}

type table_kind = Absolute | Pic

type table_fixup = {
  tf_offset : int;  (** byte offset inside .rodata *)
  tf_kind : table_kind;
  tf_cases : string list;  (** case labels, in slot order *)
}

type t = {
  mutable hot : Asm.item list;  (** reversed *)
  mutable cold_items : Asm.item list;  (** reversed; emitted after hot code *)
  mutable outs : fn_out list;  (** reversed *)
  mutable counter : int;
  rodata : Fetch_util.Byte_buf.t;
  mutable fixups : table_fixup list;
  mutable jump_tables : (int * string list) list;  (** table addr, cases *)
  mutable pools : (string * string) list;
      (** inter-function junk/table pools: (start, end) labels, reversed *)
  rodata_base : int;
  data_base : int;
  profile : Profile.t;
  rng : Fetch_util.Prng.t;
}

let create ~rodata_base ~data_base ~profile ~rng =
  {
    hot = [];
    cold_items = [];
    outs = [];
    counter = 0;
    rodata = Fetch_util.Byte_buf.create ~capacity:1024 ();
    fixups = [];
    jump_tables = [];
    pools = [];
    rodata_base;
    data_base;
    profile;
    rng;
  }

(* Per-function lowering state. *)
type fnctx = {
  f : Ir.func;
  mutable items : Asm.item list;  (** reversed; hot or cold stream *)
  mutable in_cold : bool;
  mutable ev : cfi_event list;  (** reversed; current stream's events *)
  mutable cold_ev : cfi_event list;
  mutable height : int;  (** bytes below the return address minus 8 *)
  mutable init : Reg.t list;  (** registers written so far (or arguments) *)
  mutable epilogue_label : string option;
  mutable needs_restore_state : bool;
      (** an inline (tail-call) epilogue was emitted under remember_state;
          the shared epilogue block must begin with restore_state *)
  mutable cold_part : (string * string * Fetch_dwarf.Cfi.instr list) option;
  mutable pending_lps : (string * string * string * Ir.stmt list * Fetch_x86.Reg.t list) list;
      (** deferred landing pads: (try start, try end, lp label, cleanup
          stmts, init snapshot); emitted after the function's terminal *)
  mutable try_sites : (string * string * string) list;
}

let fresh t prefix =
  t.counter <- t.counter + 1;
  Printf.sprintf ".L%s%d" prefix t.counter

let push_item (c : fnctx) it = c.items <- it :: c.items

let ins c i = push_item c (Asm.I i)

(* Pool bytes are bracketed by labels so {!Link} can thread their extents
   into the ground truth (scoring must know the junk is not a function). *)
let emit_pool t (c : fnctx) bytes =
  let s = fresh t "pool" and e = fresh t "poolend" in
  push_item c (Asm.Label s);
  push_item c (Asm.Raw bytes);
  push_item c (Asm.Label e);
  t.pools <- (s, e) :: t.pools

let scratch_pool = [| Reg.Rax; Rcx; Rdx; Rsi; Rdi; R8; R9; R10; R11 |]

let caller_saved = [ Reg.Rax; Rcx; Rdx; Rsi; Rdi; R8; R9; R10; R11 ]

let mark_init c r = if not (List.mem r c.init) then c.init <- r :: c.init

let clobber_caller_saved c =
  c.init <- List.filter (fun r -> not (List.mem r caller_saved)) c.init;
  mark_init c Reg.Rax (* return value *)

let pick_init t (c : fnctx) =
  let candidates = List.filter (fun r -> not (Reg.equal r Reg.Rsp)) c.init in
  match candidates with
  | [] ->
      (* materialize a value first *)
      let r = Fetch_util.Prng.choice t.rng scratch_pool in
      ins c (I.Mov (I.W32, I.Reg r, I.Imm (Fetch_util.Prng.int t.rng 1000)));
      mark_init c r;
      r
  | _ -> Fetch_util.Prng.choice_list t.rng candidates

let pick_dst t (_c : fnctx) = Fetch_util.Prng.choice t.rng scratch_pool

(* Record a CFI event bound to a fresh label placed at the current point. *)
let cfi_event t (c : fnctx) instrs =
  let l = fresh t "cfi" in
  push_item c (Asm.Label l);
  let e = { at = l; cfi = instrs } in
  if c.in_cold then c.cold_ev <- e :: c.cold_ev else c.ev <- e :: c.ev

(* CFA offset = height + 8 (the return address slot). *)
let cfa_offset (c : fnctx) = c.height + 8

let dwarf r = Reg.dwarf_number r

(* One random ALU instruction (occasionally a short idiom) over the
   scratch pool. *)
let compute_insn t (c : fnctx) =
  let open Fetch_util in
  match Prng.int t.rng 12 with
  | 0 ->
      let d = pick_dst t c in
      ins c (I.Mov (I.W32, I.Reg d, I.Imm (Prng.int t.rng 4096)));
      mark_init c d
  | 1 ->
      let s = pick_init t c in
      let d = pick_dst t c in
      ins c (I.Mov (I.W64, I.Reg d, I.Reg s));
      mark_init c d
  | 2 ->
      let d = pick_dst t c in
      ins c (I.Arith (I.Xor, I.W32, I.Reg d, I.Reg d));
      mark_init c d
  | 3 ->
      let s = pick_init t c in
      let d = pick_init t c in
      ins c
        (I.Arith
           ( Prng.choice_list t.rng [ I.Add; I.Sub; I.And; I.Or ],
             I.W64, I.Reg d, I.Reg s ))
  | 4 ->
      let d = pick_init t c in
      ins c
        (I.Arith
           ( Prng.choice_list t.rng [ I.Add; I.Sub ],
             I.W64, I.Reg d, I.Imm (Prng.int t.rng 256) ))
  | 5 ->
      let s = pick_init t c in
      let d = pick_dst t c in
      ins c (I.Lea (d, I.mem ~base:s ~disp:(Prng.int t.rng 128) ()));
      mark_init c d
  | 6 ->
      let d = pick_init t c in
      ins c (I.Shift (Prng.choice_list t.rng [ `Shl; `Shr; `Sar ], d, 1 + Prng.int t.rng 7))
  | 7 ->
      (* conditional move after a compare, as -O2 branches often lower *)
      let a = pick_init t c in
      let s = pick_init t c in
      let d = pick_init t c in
      ins c (I.Arith (I.Cmp, I.W64, I.Reg a, I.Imm (Prng.int t.rng 64)));
      ins c (I.Cmov (Prng.choice t.rng [| I.E; I.Ne; I.L; I.G |], d, I.Reg s))
  | 8 ->
      (* flag materialization: xor d,d ; setcc dl *)
      let d = pick_dst t c in
      ins c (I.Arith (I.Xor, I.W32, I.Reg d, I.Reg d));
      mark_init c d;
      let a = pick_init t c in
      ins c (I.Test (I.W64, a, a));
      ins c (I.Setcc (Prng.choice t.rng [| I.E; I.Ne; I.S; I.Ns |], d))
  | 9 ->
      let d = pick_init t c in
      ins c (I.Not (I.W64, d))
  | 10 ->
      (* division idiom: mov rax, s ; cqo ; idiv r *)
      let s = pick_init t c in
      ins c (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg s));
      mark_init c Reg.Rax;
      ins c I.Cqo;
      mark_init c Reg.Rdx;
      let r =
        match
          List.find_opt
            (fun r ->
              (not (Reg.equal r Reg.Rax)) && (not (Reg.equal r Reg.Rdx))
              && not (Reg.equal r Reg.Rsp))
            c.init
        with
        | Some r -> r
        | None ->
            let r = Reg.Rcx in
            ins c (I.Mov (I.W32, I.Reg r, I.Imm (1 + Prng.int t.rng 100)));
            mark_init c r;
            r
      in
      ins c (I.Idiv (I.W64, r))
  | _ ->
      let s = pick_init t c in
      let d = pick_init t c in
      ins c (I.Imul (d, I.Reg s))

let arg_setup t (c : fnctx) =
  let open Fetch_util in
  let n = Prng.int t.rng 3 in
  List.iteri
    (fun i r ->
      if i < n then begin
        (if Prng.bool t.rng then
           ins c (I.Mov (I.W32, I.Reg r, I.Imm (Prng.int t.rng 1024)))
         else
           let s = pick_init t c in
           ins c (I.Mov (I.W64, I.Reg r, I.Reg s)));
        mark_init c r
      end)
    [ Reg.Rdi; Rsi; Rdx ]

(* Flag-setting instruction for a conditional branch. *)
let set_flags t (c : fnctx) =
  let open Fetch_util in
  let a = pick_init t c in
  if Prng.bool t.rng then ins c (I.Test (I.W64, a, a))
  else if Prng.bool t.rng then
    ins c (I.Arith (I.Cmp, I.W64, I.Reg a, I.Imm (Prng.int t.rng 64)))
  else
    let b = pick_init t c in
    ins c (I.Arith (I.Cmp, I.W64, I.Reg a, I.Reg b))

let any_cond t =
  Fetch_util.Prng.choice t.rng
    [| I.E; I.Ne; I.L; I.Le; I.G; I.Ge; I.B; I.A; I.S; I.Ns |]

(* The epilogue mirror of the prologue; emits CFI restore events. *)
let emit_epilogue t (c : fnctx) =
  let f = c.f in
  (match f.frame with
  | Frameless -> ()
  | Rsp_frame n when n > 0 ->
      ins c (I.Arith (I.Add, I.W64, I.Reg Reg.Rsp, I.Imm n));
      c.height <- c.height - n;
      cfi_event t c [ Fetch_dwarf.Cfi.Def_cfa_offset (cfa_offset c) ]
  | Rbp_frame n when n > 0 ->
      ins c (I.Arith (I.Add, I.W64, I.Reg Reg.Rsp, I.Imm n));
      c.height <- c.height - n
      (* CFA is rbp-based here; no def_cfa_offset *)
  | Rsp_frame _ | Rbp_frame _ -> ());
  let saves = List.rev f.saves in
  List.iter
    (fun r ->
      ins c (I.Pop r);
      c.height <- c.height - 8;
      match f.frame with
      | Rbp_frame _ -> ()
      | Frameless | Rsp_frame _ ->
          cfi_event t c
            [
              Fetch_dwarf.Cfi.Restore (dwarf r);
              Fetch_dwarf.Cfi.Def_cfa_offset (cfa_offset c);
            ])
    saves;
  match f.frame with
  | Rbp_frame _ ->
      ins c (I.Pop Reg.Rbp);
      c.height <- c.height - 8;
      cfi_event t c [ Fetch_dwarf.Cfi.Def_cfa (Fetch_dwarf.Cfa_table.dw_rsp, 8) ]
  | Frameless | Rsp_frame _ -> ()

(* Allocate a jump table in .rodata and emit the dispatch sequence.
   Returns the case labels. *)
let emit_table_dispatch t (c : fnctx) ~idx ~ncases =
  let open Fetch_util in
  let kind = if t.profile.pic_tables then Pic else Absolute in
  let entry_size = match kind with Absolute -> 8 | Pic -> 4 in
  Byte_buf.pad_to t.rodata ~align:8 ~byte:0;
  let off = Byte_buf.length t.rodata in
  Byte_buf.fill t.rodata ~count:(ncases * entry_size) ~byte:0;
  let table_addr = t.rodata_base + off in
  let case_labels = List.init ncases (fun _ -> fresh t "case") in
  t.fixups <- { tf_offset = off; tf_kind = kind; tf_cases = case_labels } :: t.fixups;
  t.jump_tables <- (table_addr, case_labels) :: t.jump_tables;
  let default_label = fresh t "swdef" in
  ins c (I.Arith (I.Cmp, I.W64, I.Reg idx, I.Imm (ncases - 1)));
  ins c (I.Jcc (I.A, I.To_label default_label));
  (match kind with
  | Absolute ->
      if Prng.bool t.rng then
        (* jmp qword [table + idx*8] *)
        ins c (I.Jmp_ind (I.Mem (I.mem ~index:(idx, 8) ~disp:table_addr ())))
      else begin
        (* mov rax, [table + idx*8]; jmp rax *)
        let r = Reg.Rax in
        ins c (I.Mov (I.W64, I.Reg r, I.Mem (I.mem ~index:(idx, 8) ~disp:table_addr ())));
        mark_init c r;
        ins c (I.Jmp_ind (I.Reg r))
      end
  | Pic ->
      (* lea rt, [rip+table]; movsxd rx, [rt + idx*4]; add rx, rt; jmp rx *)
      let rt = Reg.R11 and rx = Reg.R10 in
      ins c (I.Lea (rt, I.rip_sym (I.To_addr table_addr)));
      ins c (I.Movsxd (rx, I.mem ~base:rt ~index:(idx, 4) ()));
      ins c (I.Arith (I.Add, I.W64, I.Reg rx, I.Reg rt));
      mark_init c rt;
      mark_init c rx;
      ins c (I.Jmp_ind (I.Reg rx)));
  (case_labels, default_label)

let rec lower_stmts t (c : fnctx) stmts =
  (* returns true when control falls through the end *)
  match stmts with
  | [] -> true
  | s :: rest ->
      let falls = lower_stmt t c s in
      if falls then lower_stmts t c rest
      else begin
        (* unreachable trailing statements are dropped, like a compiler *)
        ignore rest;
        false
      end

and lower_stmt t (c : fnctx) = function
  | Compute n ->
      for _ = 1 to n do
        compute_insn t c
      done;
      true
  | Call callee ->
      arg_setup t c;
      ins c (I.Call (I.To_label callee));
      clobber_caller_saved c;
      true
  | Call_noreturn callee ->
      arg_setup t c;
      ins c (I.Call (I.To_label callee));
      false
  | Call_error returns ->
      if returns then
        ins c (I.Arith (I.Xor, I.W32, I.Reg Reg.Rdi, I.Reg Reg.Rdi))
      else ins c (I.Mov (I.W32, I.Reg Reg.Rdi, I.Imm 1));
      mark_init c Reg.Rdi;
      ins c (I.Call (I.To_label "error_like"));
      clobber_caller_saved c;
      returns
  | Call_pointer slot ->
      let slot_addr = t.data_base + (8 * slot) in
      let open Fetch_util in
      (match Prng.int t.rng 3 with
      | 0 -> ins c (I.Call_ind (I.Mem (I.rip_sym (I.To_addr slot_addr))))
      | 1 ->
          ins c (I.Mov (I.W64, I.Reg Reg.Rax, I.Mem (I.rip_sym (I.To_addr slot_addr))));
          ins c (I.Call_ind (I.Reg Reg.Rax))
      | _ ->
          ins c (I.Mov (I.W64, I.Reg Reg.Rax, I.Mem (I.mem ~disp:slot_addr ())));
          ins c (I.Call_ind (I.Reg Reg.Rax)));
      clobber_caller_saved c;
      true
  | Call_reg_pointer callee ->
      let r = Fetch_util.Prng.choice t.rng [| Reg.Rax; R10; R11 |] in
      ins c (I.Lea (r, I.rip_sym (I.To_label callee)));
      mark_init c r;
      ins c (I.Call_ind (I.Reg r));
      clobber_caller_saved c;
      true
  | Store slot ->
      let v = pick_init t c in
      let slot_addr = t.data_base + (8 * slot) in
      if Fetch_util.Prng.bool t.rng then
        ins c (I.Mov (I.W64, I.Mem (I.rip_sym (I.To_addr slot_addr)), I.Reg v))
      else ins c (I.Mov (I.W64, I.Mem (I.mem ~disp:slot_addr ()), I.Reg v));
      true
  | If (then_s, else_s) ->
      set_flags t c;
      let l_else = fresh t "else" in
      let l_end = fresh t "endif" in
      ins c (I.Jcc (any_cond t, I.To_label l_else));
      let init_before = c.init in
      let falls_then = lower_stmts t c then_s in
      let init_then = c.init in
      if falls_then && else_s <> [] then ins c (I.Jmp (I.To_label l_end));
      push_item c (Asm.Label l_else);
      c.init <- init_before;
      let falls_else = lower_stmts t c else_s in
      push_item c (Asm.Label l_end);
      (* registers surely initialized: intersection of both branches *)
      c.init <- List.filter (fun r -> List.mem r init_then) c.init;
      falls_then || falls_else
  | Loop (count, body) ->
      (* a counter live across calls goes in a callee-saved register,
         exactly as a register allocator would assign it; call-free
         bodies can burn a scratch register *)
      let counter =
        if Ir.stmts_have_call body then
          match c.f.saves with
          | [] -> pick_dst t c (* the generator guarantees a save exists *)
          | saves -> Fetch_util.Prng.choice_list t.rng saves
        else pick_dst t c
      in
      ins c (I.Mov (I.W32, I.Reg counter, I.Imm count));
      mark_init c counter;
      let l_top = fresh t "loop" in
      push_item c (Asm.Label l_top);
      let init_top = c.init in
      let falls = lower_stmts t c body in
      if falls then begin
        (* the back edge re-enters a body lowered as if every register of
           [init_top] held a value; re-define each scratch register a call
           in the body clobbered, or the next iteration reads garbage *)
        List.iter
          (fun r ->
            if List.mem r init_top && not (List.mem r c.init) then begin
              ins c (I.Arith (I.Xor, I.W32, I.Reg r, I.Reg r));
              mark_init c r
            end)
          caller_saved;
        mark_init c counter;
        ins c (I.Dec counter);
        ins c (I.Jcc (I.Ne, I.To_label l_top))
      end;
      (* a loop whose body never falls through executes at most once and
         never continues past it *)
      falls
  | Switch (ncases, cases) ->
      let idx = pick_init t c in
      (* the default path bypasses the dispatch sequence, so its register
         state is the pre-dispatch one; case paths additionally have the
         dispatch scratch registers *)
      let init_before = c.init in
      let case_labels, default_label = emit_table_dispatch t c ~idx ~ncases in
      let init_dispatch = c.init in
      let l_end = fresh t "swend" in
      List.iteri
        (fun i l ->
          push_item c (Asm.Label l);
          c.init <- init_dispatch;
          let falls = lower_stmts t c cases.(i) in
          if falls then ins c (I.Jmp (I.To_label l_end)))
        case_labels;
      push_item c (Asm.Label default_label);
      c.init <- init_before;
      push_item c (Asm.Label l_end);
      true
  | Tail_call callee ->
      (* GCC brackets inline epilogues with remember/restore_state so the
         CFI stays correct for code after the jump. *)
      let h0 = c.height in
      cfi_event t c [ Fetch_dwarf.Cfi.Remember_state ];
      emit_epilogue t c;
      ins c (I.Jmp (I.To_label callee));
      c.height <- h0;
      c.needs_restore_state <- true;
      false
  | Try (body, lp_stmts) ->
      let l_start = fresh t "try" in
      let l_end = fresh t "tryend" in
      let l_lp = fresh t "lpad" in
      push_item c (Asm.Label l_start);
      let init_snapshot = c.init in
      let falls = lower_stmts t c body in
      push_item c (Asm.Label l_end);
      c.pending_lps <-
        (l_start, l_end, l_lp, lp_stmts, init_snapshot) :: c.pending_lps;
      c.try_sites <- (l_start, l_end, l_lp) :: c.try_sites;
      falls
  | Cold_jump cold_stmts ->
      lower_cold t c cold_stmts;
      true
  | Return -> (
      (* jump to (or fall into) the shared epilogue *)
      match c.epilogue_label with
      | Some l ->
          ins c (I.Jmp (I.To_label l));
          false
      | None ->
          c.epilogue_label <- Some (fresh t "epi");
          ins c (I.Jmp (I.To_label (Option.get c.epilogue_label)));
          false)

and lower_cold t (c : fnctx) stmts =
  let l_cold = fresh t "cold" in
  let l_back = fresh t "back" in
  set_flags t c;
  ins c (I.Jcc (any_cond t, I.To_label l_cold));
  push_item c (Asm.Label l_back);
  (* Build the cold part in the cold stream. *)
  let saved_items = c.items in
  let saved_init = c.init in
  c.items <- [];
  c.in_cold <- true;
  push_item c (Asm.Label l_cold);
  (* Cold entry CFI: the frame state carried over from the hot part. *)
  let initial =
    match c.f.frame with
    | Rbp_frame _ ->
        Fetch_dwarf.Cfi.Def_cfa (Fetch_dwarf.Cfa_table.dw_rbp, 16)
        :: Fetch_dwarf.Cfi.Offset (dwarf Reg.Rbp, 2)
        :: List.mapi
             (fun i r -> Fetch_dwarf.Cfi.Offset (dwarf r, i + 3))
             c.f.saves
    | Frameless | Rsp_frame _ ->
        Fetch_dwarf.Cfi.Def_cfa_offset (cfa_offset c)
        :: List.mapi
             (fun i r -> Fetch_dwarf.Cfi.Offset (dwarf r, i + 2))
             c.f.saves
  in
  (* Cold code starts by reading a live callee-saved value, as real
     out-of-line paths do; this is what makes the cold entry violate the
     calling convention when misread as a function start. *)
  (match c.f.saves with
  | r :: _ ->
      let d = Fetch_util.Prng.choice t.rng [| Reg.Rdi; Rsi; Rax |] in
      ins c (I.Mov (I.W64, I.Reg d, I.Reg r));
      mark_init c d
  | [] -> ());
  let falls = lower_stmts t c stmts in
  if falls then ins c (I.Jmp (I.To_label l_back));
  let l_cold_end = fresh t "coldend" in
  push_item c (Asm.Label l_cold_end);
  (* move stream to the function's cold accumulator *)
  let cold_items = c.items in
  c.items <- saved_items;
  c.in_cold <- false;
  c.init <- saved_init;
  t.cold_items <- cold_items @ t.cold_items;
  c.cold_part <- Some (l_cold, l_cold_end, initial)

(* Prologue: pushes + frame setup with CFI events. *)
let emit_prologue t (c : fnctx) =
  let f = c.f in
  if f.endbr then ins c I.Endbr64;
  if f.entry_nops > 0 then begin
    let rec pad n = if n > 0 then (ins c (I.Nop (min n 9)); pad (n - min n 9)) in
    pad f.entry_nops
  end;
  (match f.frame with
  | Rbp_frame n ->
      ins c (I.Push Reg.Rbp);
      c.height <- c.height + 8;
      cfi_event t c
        [ Fetch_dwarf.Cfi.Def_cfa_offset 16;
          Fetch_dwarf.Cfi.Offset (dwarf Reg.Rbp, 2) ];
      ins c (I.Mov (I.W64, I.Reg Reg.Rbp, I.Reg Reg.Rsp));
      mark_init c Reg.Rbp;
      cfi_event t c [ Fetch_dwarf.Cfi.Def_cfa_register (dwarf Reg.Rbp) ];
      List.iteri
        (fun i r ->
          ins c (I.Push r);
          c.height <- c.height + 8;
          cfi_event t c [ Fetch_dwarf.Cfi.Offset (dwarf r, i + 3) ])
        f.saves;
      if n > 0 then begin
        ins c (I.Arith (I.Sub, I.W64, I.Reg Reg.Rsp, I.Imm n));
        c.height <- c.height + n
      end
  | Rsp_frame n ->
      List.iteri
        (fun i r ->
          ins c (I.Push r);
          c.height <- c.height + 8;
          cfi_event t c
            [ Fetch_dwarf.Cfi.Def_cfa_offset (cfa_offset c);
              Fetch_dwarf.Cfi.Offset (dwarf r, i + 2) ])
        f.saves;
      if n > 0 then begin
        ins c (I.Arith (I.Sub, I.W64, I.Reg Reg.Rsp, I.Imm n));
        c.height <- c.height + n;
        cfi_event t c [ Fetch_dwarf.Cfi.Def_cfa_offset (cfa_offset c) ]
      end
  | Frameless ->
      List.iteri
        (fun i r ->
          ins c (I.Push r);
          c.height <- c.height + 8;
          cfi_event t c
            [ Fetch_dwarf.Cfi.Def_cfa_offset (cfa_offset c);
              Fetch_dwarf.Cfi.Offset (dwarf r, i + 2) ])
        f.saves);
  (* Give every pushed callee-saved register a value before any use. *)
  List.iter
    (fun r ->
      (if c.init <> [] && Fetch_util.Prng.bool t.rng then
         let s = pick_init t c in
         ins c (I.Mov (I.W64, I.Reg r, I.Reg s))
       else ins c (I.Mov (I.W32, I.Reg r, I.Imm (Fetch_util.Prng.int t.rng 512))));
      mark_init c r)
    f.saves

(* Noreturn tail: exit via syscall or trap; never a ret. *)
let emit_noreturn_tail t (c : fnctx) =
  if c.f.name = "abort_like" then ins c I.Ud2
  else begin
    ins c (I.Mov (I.W32, I.Reg Reg.Rax, I.Imm 60));
    ins c I.Syscall;
    ins c I.Ud2
  end;
  ignore t

(* Entry-jump (rotated loop) function: first instruction is a jmp into the
   body — the shape that defeats Ghidra's thunk heuristic. *)
let lower_entry_jump t (c : fnctx) =
  let l_body = fresh t "rotbody" in
  let l_cond = fresh t "rotcond" in
  ins c (I.Jmp (I.To_label l_cond));
  push_item c (Asm.Label l_body);
  for _ = 1 to 2 + Fetch_util.Prng.int t.rng 4 do
    compute_insn t c
  done;
  push_item c (Asm.Label l_cond);
  ins c (I.Dec Reg.Rdi);
  ins c (I.Jcc (I.Ne, I.To_label l_body));
  ins c I.Ret

(* Conditionally-noreturn function like glibc's [error]. *)
let lower_cond_noreturn t (c : fnctx) =
  let l_ret = fresh t "eret" in
  ins c (I.Test (I.W32, Reg.Rdi, Reg.Rdi));
  ins c (I.Jcc (I.E, I.To_label l_ret));
  ins c (I.Mov (I.W32, I.Reg Reg.Rax, I.Imm 60));
  ins c I.Syscall;
  ins c I.Ud2;
  push_item c (Asm.Label l_ret);
  for _ = 1 to 2 do
    compute_insn t c
  done;
  ins c I.Ret

(** Lower one function into the generator's streams. *)
let lower_func t (f : Ir.func) =
  let c =
    {
      f;
      items = [];
      in_cold = false;
      ev = [];
      cold_ev = [];
      height = 0;
      init =
        (let args = [ Reg.Rdi; Rsi; Rdx; Rcx; R8; R9 ] in
         List.filteri (fun i _ -> i < f.params) args);
      epilogue_label = None;
      needs_restore_state = false;
      cold_part = None;
      pending_lps = [];
      try_sites = [];
    }
  in
  if f.align > 1 then push_item c (Asm.Align f.align);
  (* Broken FDE (Fig. 6b): three bytes of callconv-violating code before
     the entry, covered by the FDE. *)
  let fde_label =
    if f.broken_fde then begin
      let l = fresh t "brokenfde" in
      push_item c (Asm.Label l);
      push_item c (Asm.Raw "\x48\x89\xd8");
      (* mov rax, rbx: reads an uninitialized non-argument register *)
      l
    end
    else f.name
  in
  push_item c (Asm.Label f.name);
  if f.conditional_noreturn then lower_cond_noreturn t c
  else if f.entry_jump then lower_entry_jump t c
  else begin
    emit_prologue t c;
    let falls =
      if f.noreturn then begin
        let falls =
          lower_stmts t c
            (List.filter (function Return -> false | _ -> true) f.body)
        in
        if falls then emit_noreturn_tail t c;
        false
      end
      else
        match List.rev f.body with
        | Return :: rev_prefix ->
            let falls = lower_stmts t c (List.rev rev_prefix) in
            if falls then begin
              (* fall into the shared epilogue *)
              (match c.epilogue_label with
              | Some l -> push_item c (Asm.Label l)
              | None -> ());
              emit_epilogue t c;
              ins c I.Ret;
              false
            end
            else begin
              (match c.epilogue_label with
              | Some l ->
                  push_item c (Asm.Label l);
                  emit_epilogue t c;
                  ins c I.Ret
              | None -> ());
              false
            end
        | _ ->
            let falls = lower_stmts t c f.body in
            if falls then begin
              emit_epilogue t c;
              ins c I.Ret
            end
            else begin
              match c.epilogue_label with
              | Some l ->
                  push_item c (Asm.Label l);
                  if c.needs_restore_state then
                    cfi_event t c [ Fetch_dwarf.Cfi.Restore_state ];
                  emit_epilogue t c;
                  ins c I.Ret
              | None -> ()
            end;
            false
    in
    ignore falls
  end;
  (* Landing pads: inside the function's range but reachable only through
     the unwinder — real disassemblers see them as in-function gaps. *)
  List.iter
    (fun (_, l_end, l_lp, lp_stmts, init_snapshot) ->
      push_item c (Asm.Label l_lp);
      c.init <- init_snapshot;
      let falls = lower_stmts t c lp_stmts in
      if falls then ins c (I.Jmp (I.To_label l_end)))
    (List.rev c.pending_lps);
  let end_label = f.name ^ ".__end" in
  push_item c (Asm.Label end_label);
  (* Literal-pool style junk between functions: never referenced, never
     executed (every function ends in ret/jmp/trap), but present in the
     byte stream for linear sweeps to trip over. *)
  if Fetch_util.Prng.chance t.rng t.profile.p_text_junk then begin
    let n = max 1 t.profile.junk_scale * (8 + Fetch_util.Prng.int t.rng 32) in
    let blob = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set blob i (Char.chr (Fetch_util.Prng.int t.rng 256))
    done;
    (* some blobs contain prologue-looking fragments, as real literal
       pools occasionally do; CET-style profiles plant endbr64-led
       fragments instead (endbr64; push rbp) *)
    let frag =
      if t.profile.junk_endbr then "\xf3\x0f\x1e\xfa\x55" else "\x55\x48\x89\xe5"
    in
    let flen = String.length frag in
    for _ = 1 to max 1 (n / 24) do
      if Fetch_util.Prng.chance t.rng t.profile.p_junk_prologue && n >= flen + 4
      then
        Bytes.blit_string frag 0 blob
          (1 + Fetch_util.Prng.int t.rng (n - flen - 1))
          flen
    done;
    emit_pool t c (Bytes.to_string blob)
  end;
  (* jump-table-style pools: rows of plausible 4-byte PIC offsets laid
     out in .text, as hand-written assembly sometimes does *)
  if
    t.profile.p_table_pool > 0.0
    && Fetch_util.Prng.chance t.rng t.profile.p_table_pool
  then begin
    let entries = 4 + Fetch_util.Prng.int t.rng 12 in
    let b = Fetch_util.Byte_buf.create () in
    for _ = 1 to entries do
      Fetch_util.Byte_buf.i32 b (-(16 * (1 + Fetch_util.Prng.int t.rng 64)))
    done;
    emit_pool t c (Fetch_util.Byte_buf.contents b)
  end;
  t.hot <- c.items @ t.hot;
  let cold, cold_initial =
    match c.cold_part with
    | Some (s, e, init) -> (Some (s, e), init)
    | None -> (None, [])
  in
  t.outs <-
    {
      fn = f;
      start_label = f.name;
      end_label;
      fde_label;
      events = List.rev c.ev;
      cold;
      cold_initial;
      cold_events = List.rev c.cold_ev;
      try_sites = List.rev c.try_sites;
    }
    :: t.outs

(** Lower a whole program; returns the generator with all streams filled. *)
let lower_program ~rodata_base ~data_base ~profile ~rng (p : Ir.program) =
  let t = create ~rodata_base ~data_base ~profile ~rng in
  List.iter (lower_func t) p.funcs;
  t

let items t =
  List.rev_append t.hot
    (Asm.Label "__text_cold_start" :: List.rev t.cold_items
    @ [ Asm.Label "__text_end" ])
