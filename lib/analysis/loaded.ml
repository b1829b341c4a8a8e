(** A loaded binary: the ELF image plus everything every analysis needs —
    decoded (and memoized) instructions, the parsed [.eh_frame], the CFI
    height oracle, FDE starts and symbol starts. *)

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
  symbol_starts : int list;  (** defined FUNC symbol addresses *)
  cache : (int, (Fetch_x86.Insn.t * int) option) Hashtbl.t;
}

(* [eh] short-circuits the [.eh_frame] decode with an already-decoded
   section (the serve cache's second-level hit: a re-linked binary whose
   CFI bytes are unchanged).  The caller owns the equivalence claim —
   the record must be exactly what [Eh_frame.of_image image] would
   return; parse-health counters are replayed from it either way so a
   cached load meters identically to a fresh one. *)
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
    symbol_starts;
    cache = Hashtbl.create 4096;
  }

(** Decode (memoized) the instruction at virtual address [addr]. *)
let insn_at t addr =
  match Hashtbl.find_opt t.cache addr with
  | Some r -> r
  | None ->
      let r =
        let rec find = function
          | [] -> None
          | (s : Image.section) :: rest ->
              if addr >= s.addr && addr < s.addr + String.length s.data then
                Fetch_x86.Decode.decode ~pos:(addr - s.addr) ~addr s.data
              else find rest
        in
        find t.exec
      in
      Hashtbl.replace t.cache addr r;
      r

let in_text t addr =
  List.exists
    (fun (s : Image.section) -> addr >= s.addr && addr < s.addr + String.length s.data)
    t.exec

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

let fde_starting_at t addr =
  List.exists (fun (f : Fetch_dwarf.Eh_frame.fde) -> f.pc_begin = addr) t.fdes
