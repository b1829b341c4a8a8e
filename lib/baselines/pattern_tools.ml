(** Models of the six non-FDE tools in Table III.  On stripped binaries
    these tools seed from the program entry point (plus any surviving
    symbols) and grow coverage with pattern matching — the fundamental
    limitation §II-B describes. *)

open Fetch_analysis

let seeds loaded =
  (loaded.Loaded.image.entry :: loaded.Loaded.symbol_starts)
  |> List.sort_uniq compare

(* Iterate: scan for prologues in the remaining gaps, recursively
   disassemble from matches, repeat. *)
let rec_plus_patterns ?safe ~strictness ~every_byte ~iterations loaded =
  let rec loop i seed_set res =
    if i >= iterations then res
    else
      let found =
        Prologue.scan loaded ~strictness ~every_byte
          (Linear_sweep.gaps loaded ~covered:res.Recursive.insn_spans)
      in
      let fresh =
        List.filter (fun s -> not (Hashtbl.mem res.Recursive.funcs s)) found
      in
      if fresh = [] then res
      else
        let seed_set = List.sort_uniq compare (fresh @ seed_set) in
        loop (i + 1) seed_set (Recursive.run ?safe loaded ~seeds:seed_set)
  in
  let s = seeds loaded in
  loop 0 s (Recursive.run ?safe loaded ~seeds:s)

(** DYNINST: capable recursive disassembly (jump tables, accurate noreturn)
    plus iterated strict prologue matching over every gap byte. *)
module Dyninst = struct
  let detect loaded =
    let res =
      rec_plus_patterns ~strictness:Prologue.Strict ~every_byte:true
        ~iterations:3 loaded
    in
    Recursive.starts res
end

(** BAP: weaker recursive pass (no jump-table resolution, no noreturn
    analysis) plus a BYTEWEIGHT-style loose matcher over every gap byte —
    high coverage of patterns, very many false positives. *)
module Bap = struct
  let detect loaded =
    let res =
      rec_plus_patterns ~safe:false ~strictness:Prologue.Loose ~every_byte:true
        ~iterations:2 loaded
    in
    Recursive.starts res
end

(** RADARE2: conservative — one pass of strict prologue matching at gap
    starts only; low false positives, many misses. *)
module Radare2 = struct
  let detect loaded =
    let res =
      rec_plus_patterns ~strictness:Prologue.Strict ~every_byte:false
        ~iterations:1 loaded
    in
    Recursive.starts res
end

(** IDA Pro: like RADARE2 but iterated and with broader (still strict-ish)
    pattern anchoring at padding boundaries; also splits thunks. *)
module Ida = struct
  let detect loaded =
    let res =
      rec_plus_patterns ~strictness:Prologue.Loose ~every_byte:false
        ~iterations:4 loaded
    in
    let thunk = Heuristics.thunk_targets loaded res in
    List.sort_uniq compare (thunk @ Recursive.starts res)
end

(** Binary Ninja: aggressive — iterated loose matching over every gap byte
    plus alignment-gap starts and tail-call splitting; best coverage of
    the non-FDE tools, at a high false-positive cost. *)
module Binja = struct
  let detect loaded =
    let res =
      rec_plus_patterns ~strictness:Prologue.Loose ~every_byte:true
        ~iterations:4 loaded
    in
    let extra =
      Heuristics.alignment_starts loaded res @ Heuristics.tcall_starts_angr res
    in
    List.sort_uniq compare (extra @ Recursive.starts res)
end

(** NUCLEUS: compiler-agnostic — linear sweep of all executable bytes,
    grouping of blocks connected by direct control flow; function starts
    are call targets plus each group's lowest address (§II-B). *)
module Nucleus = struct
  module Uf = struct
    (* union-find over instruction addresses *)
    let create () = Hashtbl.create 4096

    let rec find t x =
      match Hashtbl.find_opt t x with
      | None -> x
      | Some p ->
          let r = find t p in
          if r <> p then Hashtbl.replace t x r;
          r

    let union t a b =
      let ra = find t a and rb = find t b in
      if ra <> rb then Hashtbl.replace t (max ra rb) (min ra rb)
  end

  let detect loaded =
    let uf = Uf.create () in
    let call_targets = ref [] in
    let insn_addrs = ref [] in
    let is_pad = function
      | Fetch_x86.Insn.Nop _ | Fetch_x86.Insn.Int3 -> true
      | _ -> false
    in
    List.iter
      (fun (lo, hi) ->
        let insns, _junk = Linear_sweep.decode_range loaded ~lo ~hi in
        List.iter
          (fun (addr, len, insn) ->
            if not (is_pad insn) then begin
              insn_addrs := addr :: !insn_addrs;
              match Fetch_x86.Semantics.flow insn with
              | Fetch_x86.Semantics.Fall ->
                  Uf.union uf addr (addr + len)
              | Fetch_x86.Semantics.Callf (Fetch_x86.Semantics.Direct t) ->
                  call_targets := t :: !call_targets;
                  Uf.union uf addr (addr + len)
              | Fetch_x86.Semantics.Callf (Fetch_x86.Semantics.Indirect _) ->
                  Uf.union uf addr (addr + len)
              | Fetch_x86.Semantics.Cond t ->
                  Uf.union uf addr (addr + len);
                  if Loaded.in_text loaded t then Uf.union uf addr t
              | Fetch_x86.Semantics.Jump (Fetch_x86.Semantics.Direct t) ->
                  if Loaded.in_text loaded t then Uf.union uf addr t
              | Fetch_x86.Semantics.Jump (Fetch_x86.Semantics.Indirect _)
              | Fetch_x86.Semantics.Ret | Fetch_x86.Semantics.Halt ->
                  ()
            end)
          insns)
      (Loaded.text_ranges loaded);
    (* lowest address of each connected group *)
    let heads = Hashtbl.create 256 in
    let insn_set = Hashtbl.create 4096 in
    List.iter (fun a -> Hashtbl.replace insn_set a ()) !insn_addrs;
    List.iter
      (fun a ->
        let r = Uf.find uf a in
        match Hashtbl.find_opt heads r with
        | Some m when m <= a -> ()
        | _ -> Hashtbl.replace heads r a)
      !insn_addrs;
    let group_heads = Hashtbl.fold (fun _ m acc -> m :: acc) heads [] in
    let calls = List.filter (Hashtbl.mem insn_set) !call_targets in
    List.sort_uniq compare (calls @ group_heads)
end
