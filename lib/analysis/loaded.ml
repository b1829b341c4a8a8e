(** A loaded binary: the ELF image plus everything every analysis needs —
    the decode table of its executable sections, the parsed [.eh_frame],
    the CFI height oracle, FDE starts and symbol starts. *)

open Fetch_elf
module Obs = Fetch_obs.Trace

(* .eh_frame parse-health counters: how many CIE/FDE records decoded and,
   per structured reason, how many were dropped by record-level recovery. *)
let c_eh_ok = Obs.counter "eh_frame.records_ok"

let c_eh_skipped =
  List.map
    (fun k ->
      ( k,
        Obs.counter
          ("eh_frame.records_skipped." ^ Fetch_dwarf.Diag.kind_label k) ))
    Fetch_dwarf.Diag.all_kinds

type t = {
  image : Image.t;
  exec : Image.section list;  (** executable sections, ascending *)
  oracle : Fetch_dwarf.Height_oracle.t;
  eh_frame : Fetch_dwarf.Eh_frame.decoded;
      (** total parse of [.eh_frame]: recovered CIEs plus the diagnostics
          and recovered-vs-skipped record counts *)
  fdes : Fetch_dwarf.Eh_frame.fde list;
  fde_starts : int list;  (** PC Begin of every FDE, ascending, deduped *)
  fde_start_array : int array;  (** [fde_starts], for {!fde_starting_at} *)
  symbol_starts : int list;  (** defined FUNC symbol addresses *)
  seeds : int list;  (** [fde_starts] ∪ [symbol_starts], ascending *)
  table : Fetch_x86.Insn_table.t;
  blocks : Fetch_x86.Block_table.t;
  cache : (int, unit) Hashtbl.t;
}

(* [eh] short-circuits the [.eh_frame] decode with a section the caller
   decoded itself (to time that stage apart).  The caller owns the
   equivalence claim — the record must be exactly what
   [Eh_frame.of_image image] returns; parse-health counters are replayed
   from it either way so such a load meters identically to a plain one. *)
let load ?eh image =
  let exec = Image.exec_sections image in
  let eh =
    match eh with
    | Some eh -> eh
    | None -> Fetch_dwarf.Eh_frame.of_image image
  in
  Obs.add c_eh_ok eh.records_ok;
  List.iter
    (fun (d : Fetch_dwarf.Diag.t) ->
      if d.fatal then Obs.incr (List.assoc d.kind c_eh_skipped))
    eh.diags;
  let text_ranges =
    List.map
      (fun (s : Image.section) -> (s.addr, s.addr + String.length s.data))
      exec
  in
  (* [table] calls [decode] once per address: inside a trace run, [cache]
     binds each one, so its length counts the decodes.  A walk decodes
     about one text byte in four. *)
  let cache =
    Hashtbl.create
      (if Obs.enabled () then
         List.fold_left (fun n (lo, hi) -> n + ((hi - lo) / 4)) 1 text_ranges
       else 1)
  in
  let decode addr =
    if Obs.enabled () then Hashtbl.add cache addr ();
    List.find_map
      (fun (s : Image.section) ->
        if addr >= s.addr && addr < s.addr + String.length s.data then
          Fetch_x86.Decode.decode ~pos:(addr - s.addr) ~addr s.data
        else None)
      exec
  in
  let table = Fetch_x86.Insn_table.create ~decode text_ranges in
  let cies = eh.cies in
  let fdes = Fetch_dwarf.Eh_frame.all_fdes cies in
  let fde_starts =
    List.map (fun (f : Fetch_dwarf.Eh_frame.fde) -> f.pc_begin) fdes
    |> List.sort_uniq compare
  in
  let symbol_starts =
    Image.func_symbols image
    |> List.map (fun (s : Image.symbol) -> s.value)
    |> List.sort_uniq compare
  in
  {
    image;
    exec;
    oracle = Fetch_dwarf.Height_oracle.create cies;
    eh_frame = eh;
    fdes;
    fde_starts;
    fde_start_array = Array.of_list fde_starts;
    symbol_starts;
    seeds = List.sort_uniq compare (fde_starts @ symbol_starts);
    table;
    blocks = Fetch_x86.Block_table.create table;
    cache;
  }

(** The instruction at virtual address [addr] and its length, read
    through the table. *)
let insn_at t addr =
  let module T = Fetch_x86.Insn_table in
  let s = T.find t.table addr in
  if s < 0 then None else Some (T.insn t.table s, T.len t.table s)

let in_text t addr = Fetch_x86.Insn_table.in_text t.table addr

(** Executable address ranges, ascending. *)
let text_ranges t =
  List.map
    (fun (s : Image.section) -> (s.addr, s.addr + String.length s.data))
    t.exec

(** Smallest and one-past-largest executable address, if any executable
    section exists.  A single min/max pair is enough for the cheap "could
    this 8-byte constant be a text pointer at all?" prefilter — the exact
    per-section containment check runs only on survivors. *)
let text_bounds t =
  match text_ranges t with
  | [] -> None
  | (lo, hi) :: rest ->
      Some
        (List.fold_left
           (fun (lo, hi) (l, h) -> (min lo l, max hi h))
           (lo, hi) rest)

(** Does an FDE begin exactly at [addr]?  Binary search over the sorted
    starts of {e every} FDE — not the height oracle's entries, which
    drop FDEs with unsupported CFI, empty ranges or overridden
    overlaps. *)
let fde_starting_at t addr =
  let a = t.fde_start_array in
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) lsr 1 in
      let v = a.(mid) in
      if v = addr then true else if v < addr then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)
