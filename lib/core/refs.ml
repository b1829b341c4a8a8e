(** Reference collection (§IV-E): the conservative super-set of potential
    function pointers, and the reference census Algorithm 1 needs.

    Pointer candidates come from two sources: every consecutive 8-byte
    window in the data sections, and every constant operand in the
    disassembled code (immediates, absolute displacements, resolved
    RIP-relative targets).  {!collect} builds the table from a whole
    result; the §IV-E rounds then fold each delta into it with
    {!add_delta}. *)

open Fetch_x86
open Fetch_analysis
module Obs = Fetch_obs.Trace

(* Decode-table inconsistencies found while scanning committed spans:
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

(* the kinds that make their target a §IV-E pointer candidate *)
let is_pointer = function
  | Data_pointer _ | Code_constant _ -> true
  | Call_target _ | Jump_target _ -> false

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

(* [f site v] for each constant operand [v] of the instruction at
   [site], of length [len]: immediates, absolute displacements and
   resolved RIP-relative targets, last operand first.  Top-level, so that
   a call allocates nothing. *)
let const_mem f site len (m : Insn.mem) =
  if m.rip_rel then f site (site + len + m.disp)
  else if m.base = None then f site m.disp

let const_op f site len = function
  | Insn.Imm v -> f site v
  | Insn.Mem m -> const_mem f site len m
  | Insn.Reg _ -> ()

let iter_constants f site len insn =
  match insn with
  | Insn.Mov (_, a, b) | Insn.Arith (_, _, a, b) ->
      const_op f site len b;
      const_op f site len a
  | Insn.Movabs (_, v) -> f site v
  | Insn.Lea (_, m) | Insn.Movsxd (_, m) -> const_mem f site len m
  | Insn.Imul (_, o)
  | Insn.Movzx (_, _, o)
  | Insn.Movsx (_, _, o)
  | Insn.Cmov (_, _, o)
  | Insn.Call_ind o
  | Insn.Jmp_ind o ->
      const_op f site len o
  | Insn.Push _ | Insn.Pop _ | Insn.Test _ | Insn.Shift _ | Insn.Neg _
  | Insn.Inc _ | Insn.Dec _ | Insn.Setcc _ | Insn.Div _ | Insn.Idiv _
  | Insn.Mul _ | Insn.Cqo | Insn.Cdq | Insn.Not _ | Insn.Xchg _
  | Insn.Push_imm _ | Insn.Test_imm _ | Insn.Call _ | Insn.Jmp _
  | Insn.Jmp_short _ | Insn.Jcc _ | Insn.Jcc_short _ | Insn.Ret
  | Insn.Leave | Insn.Nop _ | Insn.Endbr64 | Insn.Ud2 | Insn.Int3
  | Insn.Hlt | Insn.Syscall | Insn.Cpuid ->
      ()

(* Scan one committed span [\[lo, hi)] for code-constant refs, calling
   [fresh v] for each target [v] a constant makes a pointer candidate
   for the first time.  No instruction in the decode table mid-span
   means the table disagrees with the committed spans: the event is
   counted and the scan resyncs one byte forward, so the rest of the
   span still yields its refs. *)
let scan_span loaded t ~fresh ~lo ~hi =
  let tbl = loaded.Loaded.table in
  let on_const site v =
    if Loaded.in_text loaded v then begin
      let prev = refs_to t v in
      if not (List.exists is_pointer prev) then fresh v;
      Hashtbl.replace t.by_target v (Code_constant site :: prev)
    end
  in
  let rec go addr =
    if addr < hi then
      let s = Insn_table.find tbl addr in
      if s < 0 then begin
        Obs.incr c_scan_resync;
        go (addr + 1)
      end
      else
        let len = Insn_table.len tbl s in
        iter_constants on_const addr len (Insn_table.insn tbl s);
        go (addr + len)
  in
  go lo

(* Call / jump / jump-table refs contributed by one function. *)
let scan_func t entry (f : Recursive.func) =
  List.iter (fun (site, target) -> add t target (Call_target site)) f.calls;
  List.iter
    (fun (site, target) -> add t target (Jump_target (site, entry)))
    f.all_jump_sites;
  List.iter
    (fun (_, targets) ->
      List.iter (fun tg -> add t tg (Jump_target (entry, entry))) targets)
    f.table_targets

(** Collect all references in the binary given the current disassembly,
    under a ["refs.collect"] span.  The data-section window refs never
    change as the disassembly grows, so {!add_delta} never rescans them. *)
let collect loaded (res : Recursive.result) =
  Obs.span "refs.collect" @@ fun () ->
  let t = { by_target = Hashtbl.create 1024 } in
  List.iter
    (fun (s : Fetch_elf.Image.section) ->
      if is_data_section s then scan_section_windows loaded t s)
    loaded.Loaded.image.sections;
  Fetch_util.Insn_index.iter res.insn_spans (fun ~lo ~hi ->
      scan_span loaded t ~fresh:ignore ~lo ~hi);
  Hashtbl.iter (fun entry f -> scan_func t entry f) res.funcs;
  t

(** Fold what one engine call added: its instructions, then its
    functions.  The instructions go in address order, as a scan of the
    whole table meets them, so the newest code ref to a target (the
    origin [xref.accept] records) does not depend on decode order.
    Returns the targets the delta made pointer candidates: only code
    constants can, since the data windows never change. *)
let add_delta loaded t (d : Recursive.delta) =
  let fresh = ref [] in
  List.iter
    (fun (lo, hi) ->
      scan_span loaded t ~fresh:(fun v -> fresh := v :: !fresh) ~lo ~hi)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) d.new_spans);
  List.iter (fun (f : Recursive.func) -> scan_func t f.entry f) d.new_funcs;
  !fresh

(** Candidate pointers for §IV-E: data pointers and code constants (not
    call/jump targets — those are already handled by recursion). *)
let pointer_candidates t =
  Hashtbl.fold
    (fun target kinds acc ->
      if List.exists is_pointer kinds then target :: acc else acc)
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
