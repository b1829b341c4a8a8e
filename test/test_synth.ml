(* Tests for fetch.synth: generated binaries are well-formed end to end —
   the ELF round-trips, the .eh_frame parses, every function body decodes
   as instructions, CFI heights are internally consistent, and the ground
   truth matches the section contents. *)

open Fetch_synth

let check = Alcotest.check

let profile = Profile.make Profile.Synthgcc Profile.O2

let spec =
  {
    Gen.default_spec with
    n_funcs = 40;
    n_asm_called = 2;
    n_asm_tailonly = 1;
    n_asm_pointer = 1;
    n_asm_code_ptr = 1;
    n_asm_unreachable = 1;
    n_broken_fde = 1;
    cxx = true;
  }

let built = lazy (Link.build_random ~profile ~seed:12345 spec)

let test_deterministic () =
  let a = Link.build_random ~profile ~seed:777 spec in
  let b = Link.build_random ~profile ~seed:777 spec in
  check Alcotest.bool "same bytes" true (String.equal a.raw b.raw);
  let c = Link.build_random ~profile ~seed:778 spec in
  check Alcotest.bool "different seed differs" false (String.equal a.raw c.raw)

let test_elf_roundtrip () =
  let b = Lazy.force built in
  match Fetch_elf.Decode.decode b.raw with
  | Error e -> Alcotest.failf "ELF decode: %s" e
  | Ok img ->
      List.iter
        (fun name ->
          check Alcotest.bool (name ^ " present") true
            (Fetch_elf.Image.has_section img name))
        [ ".text"; ".rodata"; ".data"; ".eh_frame" ];
      let t = Option.get (Fetch_elf.Image.section img ".text") in
      let t0 = Option.get (Fetch_elf.Image.section b.image ".text") in
      check Alcotest.string "text preserved" t0.data t.data;
      check Alcotest.int "entry preserved" b.image.entry img.entry

let test_eh_frame_parses () =
  let b = Lazy.force built in
  let cies = (Fetch_dwarf.Eh_frame.of_image b.image).cies in
  let fdes = Fetch_dwarf.Eh_frame.all_fdes cies in
  let with_fde =
        List.filter (fun (f : Truth.fn_truth) -> f.has_fde) b.truth.fns
      in
      let cold_parts =
        List.fold_left
          (fun acc (f : Truth.fn_truth) ->
            acc + if f.has_fde then List.length f.parts - 1 else 0)
          0 b.truth.fns
      in
      check Alcotest.int "FDE count = funcs-with-fde + cold parts"
        (List.length with_fde + cold_parts)
        (List.length fdes);
      (* every non-broken FDE pc_begin is a true start or a cold part *)
      let starts = Truth.start_set b.truth in
      let parts = Truth.part_starts b.truth in
      List.iter
        (fun (fde : Fetch_dwarf.Eh_frame.fde) ->
          let ok =
            Hashtbl.mem starts fde.pc_begin
            || List.mem fde.pc_begin parts
            || List.exists
                 (fun (f : Truth.fn_truth) ->
                   (not f.has_fde) || f.start - fde.pc_begin = 3
                   (* broken FDE points 3 bytes early *))
                 b.truth.fns
          in
          if not ok then Alcotest.failf "stray FDE at %#x" fde.pc_begin)
        fdes

let test_fde_covers_non_asm () =
  let b = Lazy.force built in
  let cies = (Fetch_dwarf.Eh_frame.of_image b.image).cies in
  let fdes = Fetch_dwarf.Eh_frame.all_fdes cies in
  let fde_begins = List.map (fun (f : Fetch_dwarf.Eh_frame.fde) -> f.pc_begin) fdes in
  List.iter
    (fun (f : Truth.fn_truth) ->
      if f.has_fde && not f.is_assembly then
        check Alcotest.bool (f.name ^ " has FDE") true
          (List.mem f.start fde_begins))
    b.truth.fns

(* Every part of every function must decode as a clean instruction stream
   ending exactly at the part boundary. *)
let test_function_bodies_decode () =
  let b = Lazy.force built in
  let text = Option.get (Fetch_elf.Image.section b.image ".text") in
  List.iter
    (fun (f : Truth.fn_truth) ->
      List.iter
        (fun (lo, size) ->
          let rec walk addr =
            if addr < lo + size then begin
              let pos = addr - text.addr in
              match Fetch_x86.Decode.decode ~pos ~addr text.data with
              | Some (_, len) -> walk (addr + len)
              | None ->
                  (* the broken-FDE functions embed raw prefix bytes inside
                     the FDE range but not inside the function part itself *)
                  Alcotest.failf "%s: invalid instruction at %#x" f.name addr
            end
            else
              check Alcotest.int (f.name ^ " part ends on boundary") (lo + size) addr
          in
          walk lo)
        f.parts)
    b.truth.fns

let test_truth_consistency () =
  let b = Lazy.force built in
  let names = List.map (fun (f : Truth.fn_truth) -> f.name) b.truth.fns in
  check Alcotest.bool "_start present" true (List.mem "_start" names);
  check Alcotest.bool "main present" true (List.mem "main" names);
  check Alcotest.int "unreachable pair" 2
    (Truth.count_if (fun f -> f.unreachable) b.truth);
  check Alcotest.int "tail-only count" 1
    (Truth.count_if (fun f -> f.tail_only) b.truth);
  (* all starts inside text *)
  List.iter
    (fun (f : Truth.fn_truth) ->
      if f.start < b.truth.text_lo || f.start >= b.truth.text_hi then
        Alcotest.failf "%s outside text" f.name)
    b.truth.fns;
  (* parts don't overlap across functions *)
  let claimed = ref [] in
  List.iter
    (fun (f : Truth.fn_truth) ->
      List.iter
        (fun (lo, size) ->
          if size > 0 then begin
            let hi = lo + size in
            if List.exists (fun (l, h) -> lo < h && l < hi) !claimed then
              Alcotest.failf "%s overlaps" f.name;
            claimed := (lo, hi) :: !claimed
          end)
        f.parts)
    b.truth.fns

let test_jump_tables_resolvable () =
  let b = Lazy.force built in
  List.iter
    (fun (table_addr, targets) ->
      List.iteri
        (fun i target ->
          if profile.pic_tables then begin
            match Fetch_elf.Image.read b.image ~addr:(table_addr + (4 * i)) ~len:4 with
            | Some s ->
                let off = Int32.to_int (String.get_int32_le s 0) in
                check Alcotest.int "pic entry" target (table_addr + off)
            | None -> Alcotest.fail "table read"
          end
          else
            match Fetch_elf.Image.read_u64 b.image (table_addr + (8 * i)) with
            | Some v -> check Alcotest.int "abs entry" target v
            | None -> Alcotest.fail "table read")
        targets;
      (* all targets are code addresses *)
      List.iter
        (fun t ->
          check Alcotest.bool "target in text" true
            (Fetch_elf.Image.in_exec_range b.image t))
        targets)
    b.truth.jump_tables

let test_symbols_when_not_stripped () =
  let unstripped =
    Link.build_random ~profile ~seed:999 { spec with Gen.strip = false }
  in
  let img = Result.get_ok (Fetch_elf.Decode.decode unstripped.raw) in
  let syms = Fetch_elf.Image.func_symbols img in
  check Alcotest.bool "has function symbols" true (List.length syms > 0);
  (* one symbol per function plus one per cold part *)
  let parts =
    List.fold_left
      (fun acc (f : Truth.fn_truth) -> acc + List.length f.parts)
      0 unstripped.truth.fns
  in
  check Alcotest.int "symbol count" parts (List.length syms);
  (* cold symbols exist and are false starts *)
  let cold_syms =
    List.filter
      (fun (s : Fetch_elf.Image.symbol) ->
        let n = s.sym_name in
        String.length n > 5 && String.sub n (String.length n - 5) 5 = ".cold")
      syms
  in
  let cold_parts = List.length (Truth.part_starts unstripped.truth) in
  check Alcotest.int "cold symbols" cold_parts (List.length cold_syms)

(* The emitted CFI must agree with an instruction-level simulation of the
   stack pointer: walk each rsp-complete function linearly and compare the
   oracle height against accumulated sp deltas at every instruction. *)
let test_cfi_matches_sp_simulation () =
  let b = Lazy.force built in
  let text = Option.get (Fetch_elf.Image.section b.image ".text") in
  let cies = (Fetch_dwarf.Eh_frame.of_image b.image).cies in
  let oracle = Fetch_dwarf.Height_oracle.create cies in
  let checked = ref 0 in
  List.iter
    (fun (f : Truth.fn_truth) ->
      if f.has_fde && Fetch_dwarf.Height_oracle.complete_at oracle f.start then begin
        (* Linear walk only until the first control transfer that could
           leave the straight-line prologue region. *)
        let rec walk addr h =
          if addr < f.start + f.size then
            let pos = addr - text.addr in
            match Fetch_x86.Decode.decode ~pos ~addr text.data with
            | None -> ()
            | Some (insn, len) -> (
                (match Fetch_dwarf.Height_oracle.height_at oracle addr with
                | Some oh ->
                    incr checked;
                    if oh <> h then
                      Alcotest.failf "%s@%#x: oracle %d vs simulated %d" f.name
                        addr oh h
                | None -> ());
                match Fetch_x86.Semantics.flow insn with
                | Fetch_x86.Semantics.Fall | Fetch_x86.Semantics.Callf _ -> (
                    match Fetch_x86.Semantics.sp_delta insn with
                    | Some d -> walk (addr + len) (h - d)
                    | None -> ())
                | _ -> ())
        in
        walk f.start 0
      end)
    b.truth.fns;
  check Alcotest.bool "checked some functions" true (!checked > 50)

let suite =
  [
    Alcotest.test_case "deterministic generation" `Quick test_deterministic;
    Alcotest.test_case "built ELF round-trips" `Quick test_elf_roundtrip;
    Alcotest.test_case "eh_frame parses and matches truth" `Quick test_eh_frame_parses;
    Alcotest.test_case "FDEs cover compiled functions" `Quick test_fde_covers_non_asm;
    Alcotest.test_case "function bodies decode cleanly" `Quick test_function_bodies_decode;
    Alcotest.test_case "ground truth is consistent" `Quick test_truth_consistency;
    Alcotest.test_case "jump tables resolvable" `Quick test_jump_tables_resolvable;
    Alcotest.test_case "symbols when not stripped" `Quick test_symbols_when_not_stripped;
    Alcotest.test_case "CFI heights match sp simulation" `Quick test_cfi_matches_sp_simulation;
  ]

(* --- .eh_frame_hdr and C++ metadata in generated binaries --- *)

let test_eh_frame_hdr_in_binary () =
  let b = Lazy.force built in
  match Fetch_dwarf.Eh_frame_hdr.of_image b.image with
  | Error e -> Alcotest.failf "hdr: %s" e
  | Ok None -> Alcotest.fail "no .eh_frame_hdr section"
  | Ok (Some h) ->
      check Alcotest.int "points at .eh_frame" Link.eh_frame_base h.eh_frame_ptr;
      (* the search table finds an FDE for every FDE-covered function *)
      List.iter
        (fun (f : Truth.fn_truth) ->
          if f.has_fde then
            match Fetch_dwarf.Eh_frame_hdr.search h f.start with
            | Some _ -> ()
            | None -> Alcotest.failf "%s missing from eh_frame_hdr" f.name)
        b.truth.fns

let test_cxx_personality_and_lsda () =
  (* built with cxx = true: CIEs must carry the personality and some FDEs
     an LSDA into .gcc_except_table *)
  let b = Lazy.force built in
  let cies = (Fetch_dwarf.Eh_frame.of_image b.image).cies in
  let pers =
    List.find_map (fun (c : Fetch_dwarf.Eh_frame.cie) -> c.personality) cies
  in
  check Alcotest.bool "personality present" true (pers <> None);
  let pers_addr = Option.get pers in
  let gxx =
    List.find
      (fun (f : Truth.fn_truth) -> f.name = "__gxx_personality_v0")
      b.truth.fns
  in
  check Alcotest.int "personality = __gxx_personality_v0" gxx.start pers_addr;
  let sect = Fetch_elf.Image.section b.image ".gcc_except_table" in
  check Alcotest.bool "except table present" true (sect <> None);
  let s = Option.get sect in
  let lsdas =
    List.filter_map
      (fun (f : Fetch_dwarf.Eh_frame.fde) -> f.lsda)
      (Fetch_dwarf.Eh_frame.all_fdes cies)
  in
  check Alcotest.bool "some FDEs have LSDAs" true (lsdas <> []);
  List.iter
    (fun l ->
      if l < s.addr || l >= s.addr + String.length s.data then
        Alcotest.failf "LSDA %#x outside .gcc_except_table" l)
    lsdas

let suite =
  suite
  @ [
      Alcotest.test_case ".eh_frame_hdr covers all FDE functions" `Quick
        test_eh_frame_hdr_in_binary;
      Alcotest.test_case "C++ personality and LSDAs" `Quick
        test_cxx_personality_and_lsda;
    ]

(* Corpus-level unwinder validation: for every rsp-complete function, build
   a synthetic frame at a mid-function point from the CFI rows themselves
   (return address at CFA-8, each saved register at its recorded slot) and
   check the unwinder recovers everything — tasks T1/T2/T3 end to end
   against generated CFI. *)
let test_unwind_every_complete_function () =
  let b = Lazy.force built in
  let loaded_oracle =
    Fetch_dwarf.Height_oracle.create
      (Fetch_dwarf.Eh_frame.of_image b.image).cies
  in
  let checked = ref 0 in
  List.iter
    (fun (f : Truth.fn_truth) ->
      if f.has_fde then
        match Fetch_dwarf.Height_oracle.entry_at loaded_oracle f.start with
        | Some entry when entry.complete ->
            (* pick the row with the greatest height (deepest frame) *)
            let best =
              List.fold_left
                (fun acc (row : Fetch_dwarf.Cfa_table.row) ->
                  match
                    Fetch_dwarf.Cfa_table.height_at entry.rows row.loc
                  with
                  | Some h -> (
                      match acc with
                      | Some (_, bh) when bh >= h -> acc
                      | _ -> Some (row, h))
                  | None -> acc)
                None entry.rows
            in
            (match best with
            | None -> ()
            | Some (row, h) ->
                let pc = f.start + row.loc in
                let rsp = 0x7fff0000 in
                let cfa = rsp + h + 8 in
                let ra = 0x404040 in
                let mem = Hashtbl.create 8 in
                Hashtbl.replace mem (cfa - 8) ra;
                let expected_regs = ref [] in
                List.iter
                  (fun (reg, rule) ->
                    match rule with
                    | Fetch_dwarf.Cfa_table.Saved_at_cfa off when reg <> 16 ->
                        let v = 0x1000 + reg in
                        Hashtbl.replace mem (cfa + off) v;
                        expected_regs := (reg, v) :: !expected_regs
                    | _ -> ())
                  row.regs;
                let machine =
                  {
                    Fetch_dwarf.Unwind.pc;
                    regs = [ (Fetch_dwarf.Cfa_table.dw_rsp, rsp) ];
                    read_u64 = (fun a -> Hashtbl.find_opt mem a);
                  }
                in
                match Fetch_dwarf.Unwind.step loaded_oracle machine with
                | Error _ -> Alcotest.failf "%s: unwind failed at +%d" f.name row.loc
                | Ok frame ->
                    incr checked;
                    check Alcotest.int (f.name ^ " cfa") cfa frame.cfa;
                    check Alcotest.int (f.name ^ " ra") ra frame.return_address;
                    List.iter
                      (fun (reg, v) ->
                        check (Alcotest.option Alcotest.int)
                          (Printf.sprintf "%s r%d" f.name reg)
                          (Some v)
                          (List.assoc_opt reg frame.caller_regs))
                      !expected_regs)
        | _ -> ())
    b.truth.fns;
  check Alcotest.bool "validated many frames" true (!checked > 20)

let suite =
  suite
  @ [
      Alcotest.test_case "unwind every complete function" `Quick
        test_unwind_every_complete_function;
    ]

(* LSDA call-site tables in generated C++ binaries: every LSDA parses, its
   call sites and landing pads lie inside the owning function, and the
   landing pads are invisible to recursive disassembly (reachable only via
   the unwinder). *)
let test_lsda_call_sites () =
  let b = Lazy.force built in
  let cies = (Fetch_dwarf.Eh_frame.of_image b.image).cies in
  let except =
    match Fetch_elf.Image.section b.image ".gcc_except_table" with
    | Some s -> s
    | None -> Alcotest.fail "no .gcc_except_table"
  in
  let parsed = ref 0 in
  List.iter
    (fun (fde : Fetch_dwarf.Eh_frame.fde) ->
      match fde.lsda with
      | None -> ()
      | Some addr -> (
          if addr < except.addr || addr >= except.addr + String.length except.data
          then Alcotest.failf "LSDA %#x outside .gcc_except_table" addr;
          let off = addr - except.addr in
          match
            Fetch_dwarf.Lsda.decode
              (String.sub except.data off (String.length except.data - off))
          with
          | Error e -> Alcotest.failf "LSDA parse: %s" e
          | Ok lsda ->
              incr parsed;
              check Alcotest.bool "has call sites" true (lsda.call_sites <> []);
              List.iter
                (fun (cs : Fetch_dwarf.Lsda.call_site) ->
                  check Alcotest.bool "site in range" true
                    (cs.cs_start >= 0 && cs.cs_start + cs.cs_len <= fde.pc_range);
                  check Alcotest.bool "lp in range" true
                    (cs.landing_pad > 0 && cs.landing_pad < fde.pc_range))
                lsda.call_sites))
    (Fetch_dwarf.Eh_frame.all_fdes cies);
  check Alcotest.bool "some LSDAs" true (!parsed > 0)

let test_landing_pads_unreachable_by_cfg () =
  let b = Lazy.force built in
  let loaded = Fetch_analysis.Loaded.load (Fetch_elf.Image.strip b.image) in
  let res = Fetch_analysis.Recursive.run loaded ~seeds:loaded.fde_starts in
  let cies = (Fetch_dwarf.Eh_frame.of_image b.image).cies in
  let except = Option.get (Fetch_elf.Image.section b.image ".gcc_except_table") in
  let checked = ref 0 in
  List.iter
    (fun (fde : Fetch_dwarf.Eh_frame.fde) ->
      match fde.lsda with
      | None -> ()
      | Some addr ->
          let off = addr - except.addr in
          let lsda =
            Result.get_ok
              (Fetch_dwarf.Lsda.decode
                 (String.sub except.data off (String.length except.data - off)))
          in
          List.iter
            (fun (cs : Fetch_dwarf.Lsda.call_site) ->
              incr checked;
              let lp = fde.pc_begin + cs.landing_pad in
              check Alcotest.bool "landing pad not disassembled" false
                (Fetch_util.Insn_index.mem res.insn_spans lp);
              (* but it is real code *)
              check Alcotest.bool "landing pad decodes" true
                (Fetch_analysis.Loaded.insn_at loaded lp <> None))
            lsda.call_sites)
    (Fetch_dwarf.Eh_frame.all_fdes cies);
  check Alcotest.bool "checked landing pads" true (!checked > 0)

(* Compiled functions keep the calling convention: walked from its entry,
   no compiler function reads a register that is neither an argument nor
   written on every path to the read — in particular not a scratch
   register that a call earlier in a loop body clobbered on the back
   edge.  FETCH's Fig. 6b check rejects an unreferenced FDE that breaks
   this, so a generator that breaks it makes ground truth FETCH cannot
   meet.  Drawn over every profile, C and C++. *)
let test_compiled_functions_keep_abi () =
  let violations = ref [] in
  List.iter
    (fun profile ->
      List.iter
        (fun (seed, cxx) ->
          let b =
            Link.build_random ~profile ~seed
              { Gen.default_spec with n_funcs = 60; cxx }
          in
          let loaded = Fetch_analysis.Loaded.load b.image in
          let res =
            Fetch_analysis.Recursive.run loaded
              ~seeds:(Truth.starts b.truth)
          in
          List.iter
            (fun (f : Truth.fn_truth) ->
              if f.has_fde && not f.is_assembly then
                match
                  Fetch_analysis.Callconv.validate loaded res f.start
                with
                | Ok () -> ()
                | Error v ->
                    violations :=
                      Printf.sprintf "%s seed %d: %s reads %s at %#x"
                        (Profile.name profile) seed f.name
                        (match v.reg with
                        | Some r -> Fetch_x86.Reg.name64 r
                        | None -> "?")
                        v.at
                      :: !violations)
            b.truth.fns)
        [ (1, false); (2, true); (3, false); (4, true) ])
    (List.concat_map
       (fun c -> List.map (Profile.make c) Profile.all_opts)
       Profile.[ Synthgcc; Synthllvm ]);
  check (Alcotest.list Alcotest.string) "no ABI violation" []
    (List.rev !violations)

let suite =
  suite
  @ [
      Alcotest.test_case "LSDA call sites well-formed" `Quick test_lsda_call_sites;
      Alcotest.test_case "landing pads outside the CFG" `Quick
        test_landing_pads_unreachable_by_cfg;
      Alcotest.test_case "compiled functions keep the ABI" `Quick
        test_compiled_functions_keep_abi;
    ]
