(** Linear-sweep disassembly with one-byte resynchronization, plus the gap
    enumeration used by the heuristic passes (angr's scan, prologue
    matching, NUCLEUS). *)

(** Decode [lo, hi) linearly; on an undecodable byte, skip one byte and
    retry.  Returns instructions in order and the list of skipped (junk)
    byte addresses. *)
let decode_range loaded ~lo ~hi =
  let insns = ref [] in
  let junk = ref [] in
  let rec go addr =
    if addr < hi then
      match Loaded.insn_at loaded addr with
      | Some (insn, len) when addr + len <= hi ->
          insns := (addr, len, insn) :: !insns;
          go (addr + len)
      | Some _ | None ->
          junk := addr :: !junk;
          go (addr + 1)
  in
  go lo;
  (List.rev !insns, List.rev !junk)

(** Maximal sub-ranges of the executable sections not covered by
    [covered], an instruction table of already-claimed bytes. *)
let gaps loaded ~covered =
  let ranges = Loaded.text_ranges loaded in
  List.concat_map
    (fun (lo, hi) ->
      let rec walk pos acc =
        if pos >= hi then List.rev acc
        else
          match Fetch_util.Insn_index.find covered pos with
          | Some (_, chi) -> walk chi acc
          | None -> (
              match Fetch_util.Insn_index.next_from covered pos with
              | Some (nlo, _) when nlo < hi ->
                  walk nlo ((pos, nlo) :: acc)
              | Some _ | None -> List.rev ((pos, hi) :: acc))
      in
      walk lo [])
    ranges

(** Leading padding length at [lo] (for angr's alignment-function
    heuristic). *)
let leading_padding loaded ~lo ~hi =
  let rec go addr =
    if addr >= hi then addr - lo
    else
      match Loaded.insn_at loaded addr with
      | Some (Fetch_x86.Insn.Nop n, _) -> go (addr + n)
      | Some (Fetch_x86.Insn.Int3, _) -> go (addr + 1)
      | _ -> addr - lo
  in
  go lo
