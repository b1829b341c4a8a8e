(** Reference collection (§IV-E): the conservative super-set of potential
    function pointers, and the reference census Algorithm 1 needs.

    Pointer candidates come from two sources: every consecutive 8-byte
    window in the data sections (and, optionally, non-disassembled code
    regions), and every constant operand in the disassembled code
    (immediates, absolute displacements, resolved RIP-relative targets). *)

open Fetch_x86
open Fetch_analysis
module Obs = Fetch_obs.Trace

(* Decode-cache inconsistencies found while scanning committed spans:
   should be zero, but when it fires we resync instead of dropping refs. *)
let c_scan_resync = Obs.counter "refs.scan_resync"

type kind =
  | Data_pointer of int  (** found at this data address *)
  | Code_constant of int  (** constant operand of the instruction here *)
  | Call_target of int  (** direct call site *)
  | Jump_target of int * int  (** jump site, owning function entry *)

type t = {
  by_target : (int, kind list) Hashtbl.t;
}

let add t target kind =
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_target target) in
  Hashtbl.replace t.by_target target (kind :: prev)

let refs_to t target =
  Option.value ~default:[] (Hashtbl.find_opt t.by_target target)

(* Data sections eligible for the 8-byte window scan: allocated,
   non-executable, and not unwinding metadata. *)
let is_data_section (s : Fetch_elf.Image.section) =
  s.flags land Fetch_elf.Image.shf_alloc <> 0
  && s.flags land Fetch_elf.Image.shf_execinstr = 0
  && not
       (List.mem s.sec_name [ ".eh_frame"; ".eh_frame_hdr"; ".gcc_except_table" ])

(* Every consecutive 8-byte LE window of [s] that lands in text, as
   [(target, data address)] pairs ascending by data address.  A rolling
   7-byte register plus one unsafe byte load per position replaces the
   bounds-checked 64-bit read of the naive scan, and a coarse
   [text_bounds] pre-check keeps the exact per-section containment test
   off the (overwhelmingly common) non-pointer windows.  Matches
   [Int64.to_int (String.get_int64_le ...)] bit-for-bit: both keep the
   low 63 bits of the window. *)
let window_pointers loaded (s : Fetch_elf.Image.section) =
  match Loaded.text_bounds loaded with
  | None -> []
  | Some (tlo, thi) ->
      let data = s.data in
      let n = String.length data in
      if n < 8 then []
      else begin
        let byte i = Char.code (String.unsafe_get data i) in
        (* [v] holds bytes [i .. i+6] as a 56-bit LE integer *)
        let v = ref 0 in
        for i = 0 to 6 do
          v := !v lor (byte i lsl (8 * i))
        done;
        let acc = ref [] in
        for i = 0 to n - 8 do
          let top = byte (i + 7) in
          let w = !v lor (top lsl 56) in
          if w >= tlo && w < thi && Loaded.in_text loaded w then
            acc := (w, s.addr + i) :: !acc;
          v := (!v lsr 8) lor (top lsl 48)
        done;
        List.rev !acc
      end

(* Scan every consecutive 8-byte window of a section for text pointers. *)
let scan_section_windows loaded t (s : Fetch_elf.Image.section) =
  List.iter
    (fun (target, site) -> add t target (Data_pointer site))
    (window_pointers loaded s)

(* Constant operands of one decoded instruction. *)
let insn_constants ~addr ~len insn =
  let consts = ref [] in
  let push v = consts := v :: !consts in
  let mem (m : Insn.mem) =
    if m.rip_rel then push (addr + len + m.disp)
    else if m.base = None && m.index = None then push m.disp
    else if m.index <> None && m.base = None then push m.disp
  in
  let op = function
    | Insn.Imm v -> push v
    | Insn.Mem m -> mem m
    | Insn.Reg _ -> ()
  in
  (match insn with
  | Insn.Mov (_, a, b) ->
      op a;
      op b
  | Insn.Movabs (_, v) -> push v
  | Insn.Lea (_, m) -> mem m
  | Insn.Arith (_, _, a, b) ->
      op a;
      op b
  | Insn.Imul (_, s) -> op s
  | Insn.Movsxd (_, m) -> mem m
  | Insn.Movzx (_, _, o') | Insn.Movsx (_, _, o') | Insn.Cmov (_, _, o') ->
      op o'
  | Insn.Call_ind o | Insn.Jmp_ind o -> op o
  | Insn.Push _ | Insn.Pop _ | Insn.Test _ | Insn.Shift _ | Insn.Neg _
  | Insn.Inc _ | Insn.Dec _ | Insn.Setcc _ | Insn.Div _ | Insn.Idiv _
  | Insn.Mul _ | Insn.Cqo | Insn.Cdq | Insn.Not _ | Insn.Xchg _
  | Insn.Push_imm _ | Insn.Test_imm _ | Insn.Call _ | Insn.Jmp _
  | Insn.Jmp_short _ | Insn.Jcc _ | Insn.Jcc_short _ | Insn.Ret
  | Insn.Leave | Insn.Nop _ | Insn.Endbr64 | Insn.Ud2 | Insn.Int3
  | Insn.Hlt | Insn.Syscall | Insn.Cpuid ->
      ());
  !consts

(* Scan one committed span [\[lo, hi)] for code-constant refs.  A [None]
   from the memoized decoder mid-span means the decode cache disagrees
   with the span map; the rest of the span used to be silently abandoned
   (dropping refs) — now the event is counted and the scan resyncs one
   byte forward. *)
let scan_span loaded t ~lo ~hi =
  let rec go addr =
    if addr < hi then
      match Loaded.insn_at loaded addr with
      | Some (insn, len) ->
          List.iter
            (fun v ->
              if Loaded.in_text loaded v then add t v (Code_constant addr))
            (insn_constants ~addr ~len insn);
          go (addr + len)
      | None ->
          Obs.incr c_scan_resync;
          go (addr + 1)
  in
  go lo

(* Walk every decoded instruction of the recursive result. *)
let scan_code loaded t (res : Recursive.result) =
  Fetch_util.Interval_map.iter res.insn_spans (fun ~lo ~hi () ->
      scan_span loaded t ~lo ~hi)

(* Call / jump / jump-table refs contributed by one function. *)
let scan_func t entry (f : Recursive.func) =
  List.iter (fun (site, target) -> add t target (Call_target site)) f.calls;
  List.iter
    (fun (site, _, target) -> add t target (Jump_target (site, entry)))
    f.all_jump_sites;
  List.iter
    (fun (_, targets) ->
      List.iter (fun tg -> add t tg (Jump_target (entry, entry))) targets)
    f.table_targets

let scan_calls_and_jumps t (res : Recursive.result) =
  Hashtbl.iter (fun entry f -> scan_func t entry f) res.funcs

(** Collect all references in the binary given the current disassembly. *)
let collect loaded (res : Recursive.result) =
  let t = { by_target = Hashtbl.create 1024 } in
  List.iter
    (fun (s : Fetch_elf.Image.section) ->
      if is_data_section s then scan_section_windows loaded t s)
    loaded.Loaded.image.sections;
  scan_code loaded t res;
  scan_calls_and_jumps t res;
  t

(* ------------------------------------------------------------------ *)
(* Incremental collection across xref rounds.                          *)

type incr = {
  loaded : Loaded.t;
  table : t;
  scanned : (int, unit) Hashtbl.t;  (** span lo addresses already scanned *)
  seen_funcs : (int, unit) Hashtbl.t;
  mutable n_spans : int;  (** span count at last refresh (skip shortcut) *)
  mutable n_funcs : int;
}

let incr_create loaded =
  let table = { by_target = Hashtbl.create 1024 } in
  (* the data-section window refs never change across rounds: scan once,
     keep forever *)
  List.iter
    (fun s -> if is_data_section s then scan_section_windows loaded table s)
    loaded.Loaded.image.sections;
  {
    loaded;
    table;
    scanned = Hashtbl.create 4096;
    seen_funcs = Hashtbl.create 256;
    n_spans = -1;
    n_funcs = -1;
  }

(** Fold the refs of [res] into the accumulated table and return it.
    Sound only when successive results grow monotonically — spans are
    never removed and previously seen function records are unchanged —
    which is exactly what [Recursive.extend] guarantees; under that
    precondition the returned table equals [collect loaded res]. *)
let incr_refresh inc (res : Recursive.result) =
  let n_spans = Fetch_util.Interval_map.cardinal res.insn_spans in
  let n_funcs = Hashtbl.length res.funcs in
  if n_spans <> inc.n_spans then begin
    inc.n_spans <- n_spans;
    Fetch_util.Interval_map.iter res.insn_spans (fun ~lo ~hi () ->
        if not (Hashtbl.mem inc.scanned lo) then begin
          Hashtbl.replace inc.scanned lo ();
          scan_span inc.loaded inc.table ~lo ~hi
        end)
  end;
  if n_funcs <> inc.n_funcs then begin
    inc.n_funcs <- n_funcs;
    Hashtbl.iter
      (fun entry f ->
        if not (Hashtbl.mem inc.seen_funcs entry) then begin
          Hashtbl.replace inc.seen_funcs entry ();
          scan_func inc.table entry f
        end)
      res.funcs
  end;
  inc.table

(** Candidate pointers for §IV-E: data pointers and code constants (not
    call/jump targets — those are already handled by recursion). *)
let pointer_candidates t =
  Hashtbl.fold
    (fun target kinds acc ->
      if
        List.exists
          (function
            | Data_pointer _ | Code_constant _ -> true
            | Call_target _ | Jump_target _ -> false)
          kinds
      then target :: acc
      else acc)
    t.by_target []
  |> List.sort_uniq compare

(** Is [target] referenced by anything other than jumps from [entry]?
    (Criterion 3 of Algorithm 1.) *)
let referenced_outside_jumps_of t ~entry target =
  List.exists
    (function
      | Jump_target (_, owner) -> owner <> entry
      | Data_pointer _ | Code_constant _ | Call_target _ -> true)
    (refs_to t target)

(** Is [target] referenced at all (HasRefTo)? *)
let has_ref t target = refs_to t target <> []
