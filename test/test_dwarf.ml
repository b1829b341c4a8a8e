(* Tests for fetch.dwarf: CFI codec, eh_frame codec, CFA tables, heights,
   and the reference unwinder. *)

open Fetch_dwarf

let check = Alcotest.check

(* The FDE from the paper's Figure 4 (IDA-Pro 7.2 function at 0xb0). *)
let figure4_fde =
  {
    Eh_frame.pc_begin = 0xb0;
    pc_range = 56;
    lsda = None;
    instrs =
      [
        Cfi.Advance_loc 1;
        (* to b1 *)
        Cfi.Def_cfa_offset 16;
        Cfi.Offset (6, 2);
        (* rbp at cfa-16 *)
        Cfi.Advance_loc 12;
        (* to bd *)
        Cfi.Def_cfa_offset 24;
        Cfi.Offset (3, 3);
        (* rbx at cfa-24 *)
        Cfi.Advance_loc 11;
        (* to c8 *)
        Cfi.Def_cfa_offset 32;
        Cfi.Advance_loc 29;
        (* to e5 *)
        Cfi.Def_cfa_offset 24;
        Cfi.Advance_loc 1;
        (* to e6 *)
        Cfi.Def_cfa_offset 16;
        Cfi.Advance_loc 1;
        (* to e7 *)
        Cfi.Def_cfa_offset 8;
      ];
  }

let figure4_cie = Eh_frame.default_cie ~fdes:[ figure4_fde ] ()

let rows_ok ~cie fde =
  match Cfa_table.rows ~cie fde with
  | Ok rows -> rows
  | Error m -> Alcotest.failf "unsupported CFI: %s" m

let test_cfi_roundtrip () =
  let instrs =
    [
      Cfi.Def_cfa (7, 8);
      Cfi.Offset (16, 1);
      Cfi.Advance_loc 1;
      Cfi.Advance_loc 63;
      Cfi.Advance_loc 64;
      Cfi.Advance_loc 300;
      Cfi.Advance_loc 70000;
      Cfi.Def_cfa_offset 16;
      Cfi.Def_cfa_register 6;
      Cfi.Offset (6, 2);
      Cfi.Offset (80, 3);
      (* extended form *)
      Cfi.Restore 3;
      Cfi.Restore 70;
      Cfi.Same_value 12;
      Cfi.Undefined 13;
      Cfi.Register (3, 12);
      Cfi.Remember_state;
      Cfi.Restore_state;
      Cfi.Def_cfa_expression "\x77\x08";
      Cfi.Expression (8, "\x77\x2e");
      Cfi.Nop;
    ]
  in
  let b = Fetch_util.Byte_buf.create () in
  List.iter (Cfi.encode b) instrs;
  let decoded =
    Cfi.decode_all (Fetch_util.Byte_cursor.of_string (Fetch_util.Byte_buf.contents b))
  in
  check Alcotest.int "count" (List.length instrs) (List.length decoded);
  List.iter2
    (fun a d ->
      if a <> d then
        Alcotest.failf "cfi mismatch: %s vs %s" (Cfi.to_string a) (Cfi.to_string d))
    instrs decoded

let test_eh_frame_roundtrip () =
  let addr = 0x700000 in
  let fde2 =
    { Eh_frame.pc_begin = 0x200; pc_range = 16; lsda = None; instrs = [ Cfi.Advance_loc 4; Cfi.Def_cfa_offset 16 ] }
  in
  let cies =
    [
      Eh_frame.default_cie ~fdes:[ figure4_fde; fde2 ] ();
      Eh_frame.default_cie ~fdes:[ { Eh_frame.pc_begin = 0x300; pc_range = 8; lsda = None; instrs = [] } ] ();
    ]
  in
  let encoded = Eh_frame.encode ~addr cies in
  match (Eh_frame.decode ~addr encoded).cies with
  | cies' ->
      check Alcotest.int "CIE count" 2 (List.length cies');
      let all = Eh_frame.all_fdes cies' in
      check Alcotest.int "FDE count" 3 (List.length all);
      let f1 = List.nth all 0 in
      check Alcotest.int "pc_begin" 0xb0 f1.pc_begin;
      check Alcotest.int "pc_range" 56 f1.pc_range;
      (* CFI programs survive modulo trailing padding nops *)
      let strip_nops l = List.filter (fun i -> i <> Cfi.Nop) l in
      check Alcotest.int "fde1 instr count"
        (List.length figure4_fde.instrs)
        (List.length (strip_nops f1.instrs));
      let c1 = List.nth cies' 0 in
      check Alcotest.int "code align" 1 c1.code_align;
      check Alcotest.int "data align" (-8) c1.data_align;
      check Alcotest.int "ra reg" 16 c1.ra_reg

let test_eh_frame_terminator_and_empty () =
  let encoded = Eh_frame.encode ~addr:0 [] in
  check Alcotest.int "empty is just terminator" 4 (String.length encoded);
  let d = Eh_frame.decode ~addr:0 encoded in
  check Alcotest.bool "decodes empty" true (d.cies = [] && d.diags = [])

(* Figure 4's run-time stack: heights at each point of the function. *)
let test_figure4_heights () =
  let rows = rows_ok ~cie:figure4_cie figure4_fde in
  let height off = Cfa_table.height_at rows off in
  check (Alcotest.option Alcotest.int) "entry" (Some 0) (height 0);
  check (Alcotest.option Alcotest.int) "after push rbp" (Some 8) (height 0x1);
  check (Alcotest.option Alcotest.int) "after push rbx" (Some 16) (height 0xd);
  check (Alcotest.option Alcotest.int) "after sub rsp,8" (Some 24) (height 0x18);
  check (Alcotest.option Alcotest.int) "mid body" (Some 24) (height 0x20);
  check (Alcotest.option Alcotest.int) "after add rsp,8" (Some 16) (height 0x35);
  check (Alcotest.option Alcotest.int) "after pop rbx" (Some 8) (height 0x36);
  check (Alcotest.option Alcotest.int) "at ret" (Some 0) (height 0x37);
  check Alcotest.bool "complete" true (Cfa_table.complete_rsp_heights rows)

let test_rbp_based_incomplete () =
  let fde =
    {
      Eh_frame.pc_begin = 0;
      pc_range = 32;
      lsda = None;
      instrs =
        [
          Cfi.Advance_loc 1;
          Cfi.Def_cfa_offset 16;
          Cfi.Offset (6, 2);
          Cfi.Advance_loc 3;
          Cfi.Def_cfa_register 6;
          (* CFA now rbp-based *)
        ];
    }
  in
  let rows = rows_ok ~cie:figure4_cie fde in
  check Alcotest.bool "incomplete" false (Cfa_table.complete_rsp_heights rows);
  check (Alcotest.option Alcotest.int) "height before rebase" (Some 8)
    (Cfa_table.height_at rows 2);
  check (Alcotest.option Alcotest.int) "no height after rebase" None
    (Cfa_table.height_at rows 10)

let test_remember_restore () =
  let fde =
    {
      Eh_frame.pc_begin = 0;
      pc_range = 64;
      lsda = None;
      instrs =
        [
          Cfi.Advance_loc 1;
          Cfi.Def_cfa_offset 16;
          Cfi.Advance_loc 9;
          Cfi.Remember_state;
          Cfi.Advance_loc 2;
          Cfi.Def_cfa_offset 8;
          (* inline epilogue *)
          Cfi.Advance_loc 8;
          Cfi.Restore_state;
          (* back to offset 16 *)
        ];
    }
  in
  let rows = rows_ok ~cie:figure4_cie fde in
  check (Alcotest.option Alcotest.int) "inside epilogue" (Some 0)
    (Cfa_table.height_at rows 13);
  check (Alcotest.option Alcotest.int) "after restore" (Some 8)
    (Cfa_table.height_at rows 20);
  check Alcotest.bool "still complete" true (Cfa_table.complete_rsp_heights rows)

let test_height_oracle () =
  let oracle = Height_oracle.create [ figure4_cie ] in
  check (Alcotest.option Alcotest.int) "abs height" (Some 24)
    (Height_oracle.height_at oracle (0xb0 + 0x20));
  check Alcotest.bool "complete" true (Height_oracle.complete_at oracle 0xb0);
  check (Alcotest.option Alcotest.int) "outside" None
    (Height_oracle.height_at oracle 0x500);
  match Height_oracle.entry_at oracle 0xb0 with
  | Some e -> check Alcotest.int "fde lookup" 56 e.fde.pc_range
  | None -> Alcotest.fail "entry_at"

(* The rule combinations outside the compiler subset are errors, not
   exceptions. *)
let test_cfa_rows_unsupported () =
  let expr = Cfi.Def_cfa_expression "\x77\x08" in
  List.iter
    (fun (what, instrs) ->
      check Alcotest.bool what true
        (Result.is_error
           (Cfa_table.rows ~cie:figure4_cie
              (Eh_frame.make_fde ~pc_begin:0 ~pc_range:16 instrs))))
    [
      ("def_cfa_register over an expression", [ expr; Cfi.Def_cfa_register 6 ]);
      ("def_cfa_offset over an expression", [ expr; Cfi.Def_cfa_offset 16 ]);
      ("restore_state with nothing remembered", [ Cfi.Advance_loc 1; Cfi.Restore_state ]);
    ]

(* An FDE whose CFI fails has no height and evicts nothing: the earlier
   FDE it overlaps still answers, and its own unshared bytes stay
   uncovered. *)
(* [along] answers as [height_at] at every address of every FDE, one
   byte either side included: in ascending order, as lint asks it, and
   in a shuffled order with a fresh reader.  Synth draws and every
   adversarial scenario (overlapping, broken and 64-bit FDEs among
   them). *)
let test_height_oracle_along () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun (img : Fetch_elf.Image.t) ->
      let loaded = Fetch_analysis.Loaded.load img in
      let oracle = loaded.oracle in
      let addrs =
        Array.of_list
          (List.concat_map
             (fun (f : Eh_frame.fde) -> List.init (f.pc_range + 2) (fun i -> f.pc_begin - 1 + i))
             loaded.fdes)
      in
      let agree name addrs =
        let along = Height_oracle.along oracle in
        check Alcotest.(list (option int)) name
          (List.map (Height_oracle.height_at oracle) addrs)
          (List.map along addrs)
      in
      check Alcotest.bool "some FDE has heights" true
        (Array.exists (fun a -> Height_oracle.height_at oracle a <> None) addrs);
      agree "ascending" (List.sort_uniq compare (Array.to_list addrs));
      for i = Array.length addrs - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = addrs.(i) in
        addrs.(i) <- addrs.(j);
        addrs.(j) <- x
      done;
      agree "shuffled" (Array.to_list addrs))
    (List.map
       (fun (compiler, seed) ->
         (Fetch_synth.Link.build_random
            ~profile:(Fetch_synth.Profile.make compiler Fetch_synth.Profile.O2)
            ~seed Fetch_synth.Gen.default_spec)
           .image)
       [ (Fetch_synth.Profile.Synthgcc, 3); (Fetch_synth.Profile.Synthllvm, 4) ]
    @ List.map
        (fun sc -> (Fetch_synth.Adversary.build sc ~seed:2026).image)
        Fetch_synth.Adversary.all)

let test_height_oracle_unsupported_fde () =
  let good =
    Eh_frame.make_fde ~pc_begin:0 ~pc_range:10
      [ Cfi.Advance_loc 1; Cfi.Def_cfa_offset 16 ]
  in
  let bad = Eh_frame.make_fde ~pc_begin:5 ~pc_range:10 [ Cfi.Restore_state ] in
  let oracle =
    Height_oracle.create [ Eh_frame.default_cie ~fdes:[ good; bad ] () ]
  in
  List.iter
    (fun (addr, want) ->
      check (Alcotest.option Alcotest.int) (Printf.sprintf "height_at %d" addr) want
        (Height_oracle.height_at oracle addr))
    [ (0, Some 0); (7, Some 8); (9, Some 8); (10, None); (14, None) ];
  check Alcotest.bool "the failing FDE's bytes are not covered" true
    (Height_oracle.entry_at oracle 12 = None)

(* Overlapping FDEs: a later FDE evicts every earlier FDE it overlaps,
   even partly.  B [5,15) evicts A [0,10), then C [12,20) evicts B, so
   only C answers and A's unshared bytes are uncovered. *)
let test_height_oracle_override () =
  let fde pc_begin pc_range = Eh_frame.make_fde ~pc_begin ~pc_range [] in
  let oracle =
    Height_oracle.create
      [ Eh_frame.default_cie ~fdes:[ fde 0 10; fde 5 10; fde 12 8 ] () ]
  in
  let owner addr =
    Option.map
      (fun (e : Height_oracle.entry) -> e.fde.pc_begin)
      (Height_oracle.entry_at oracle addr)
  in
  List.iter
    (fun (addr, want) ->
      check (Alcotest.option Alcotest.int) (Printf.sprintf "entry_at %d" addr) want
        (owner addr))
    [ (2, None); (7, None); (12, Some 12); (19, Some 12); (20, None) ]

(* Unwinder: simulate the Figure 4 function mid-body and unwind one frame.
   Stack layout at offset 0x20 (height 24): [rsp] pad, [rsp+8] rbx,
   [rsp+16] rbp, [rsp+24] return address. *)
let test_unwind_figure4 () =
  let rsp = 0x7fff0000 in
  let ra = 0x404242 in
  let mem = Hashtbl.create 8 in
  Hashtbl.replace mem (rsp + 8) 0x1111;
  (* saved rbx *)
  Hashtbl.replace mem (rsp + 16) 0x2222;
  (* saved rbp *)
  Hashtbl.replace mem (rsp + 24) ra;
  let oracle = Height_oracle.create [ figure4_cie ] in
  let m =
    {
      Unwind.pc = 0xb0 + 0x20;
      regs = [ (Cfa_table.dw_rsp, rsp); (6, 0xdead); (3, 0xbeef) ];
      read_u64 = (fun a -> Hashtbl.find_opt mem a);
    }
  in
  match Unwind.step oracle m with
  | Error _ -> Alcotest.fail "unwind failed"
  | Ok f ->
      check Alcotest.int "cfa" (rsp + 32) f.cfa;
      check Alcotest.int "return address" ra f.return_address;
      check (Alcotest.option Alcotest.int) "rbx restored" (Some 0x1111)
        (List.assoc_opt 3 f.caller_regs);
      check (Alcotest.option Alcotest.int) "rbp restored" (Some 0x2222)
        (List.assoc_opt 6 f.caller_regs);
      check (Alcotest.option Alcotest.int) "rsp is cfa" (Some (rsp + 32))
        (List.assoc_opt Cfa_table.dw_rsp f.caller_regs)

let test_unwind_no_fde () =
  let oracle = Height_oracle.create [ figure4_cie ] in
  let m =
    { Unwind.pc = 0x9999; regs = [ (7, 0) ]; read_u64 = (fun _ -> None) }
  in
  match Unwind.step oracle m with
  | Error (Unwind.No_fde 0x9999) -> ()
  | _ -> Alcotest.fail "expected No_fde"

(* Property: random push/sub CFI programs produce heights that match a
   direct simulation. *)
let prop_heights_match_simulation =
  QCheck.Test.make ~name:"cfa rows match simulated stack heights" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 0 12) (QCheck.int_range 1 6))
    (fun deltas ->
      (* build: at offset i+1, stack grows by deltas[i]*8 bytes *)
      let instrs =
        List.concat
          (List.mapi
             (fun _i d ->
               [ Cfi.Advance_loc 1; Cfi.Def_cfa_offset (8 + (8 * d)) ])
             deltas)
      in
      let fde =
        { Eh_frame.pc_begin = 0; pc_range = List.length deltas + 2; lsda = None; instrs }
      in
      let rows = rows_ok ~cie:figure4_cie fde in
      let ok = ref (Cfa_table.height_at rows 0 = Some 0) in
      List.iteri
        (fun i d ->
          if Cfa_table.height_at rows (i + 1) <> Some (8 * d) then ok := false)
        deltas;
      !ok)

let suite =
  [
    Alcotest.test_case "cfi codec roundtrip" `Quick test_cfi_roundtrip;
    Alcotest.test_case "eh_frame codec roundtrip" `Quick test_eh_frame_roundtrip;
    Alcotest.test_case "eh_frame empty/terminator" `Quick test_eh_frame_terminator_and_empty;
    Alcotest.test_case "figure 4 heights" `Quick test_figure4_heights;
    Alcotest.test_case "rbp-based CFI is incomplete" `Quick test_rbp_based_incomplete;
    Alcotest.test_case "remember/restore state" `Quick test_remember_restore;
    Alcotest.test_case "height oracle" `Quick test_height_oracle;
    Alcotest.test_case "unwind figure 4 frame" `Quick test_unwind_figure4;
    Alcotest.test_case "unwind without FDE fails" `Quick test_unwind_no_fde;
    QCheck_alcotest.to_alcotest prop_heights_match_simulation;
  ]

(* --- personality / LSDA augmentations and .eh_frame_hdr --- *)

let test_personality_lsda_roundtrip () =
  let fde_with =
    Eh_frame.make_fde ~lsda:0x6f0010 ~pc_begin:0x1000 ~pc_range:32
      [ Cfi.Advance_loc 4; Cfi.Def_cfa_offset 16 ]
  in
  let fde_without = Eh_frame.make_fde ~pc_begin:0x1040 ~pc_range:16 [] in
  let cies =
    [ Eh_frame.default_cie ~personality:0x402000 ~fdes:[ fde_with; fde_without ] () ]
  in
  let encoded = Eh_frame.encode ~addr:0x700000 cies in
  match (Eh_frame.decode ~addr:0x700000 encoded).cies with
  | [ cie ] ->
      check (Alcotest.option Alcotest.int) "personality" (Some 0x402000)
        cie.personality;
      (match cie.fdes with
      | [ a; b ] ->
          check (Alcotest.option Alcotest.int) "lsda kept" (Some 0x6f0010) a.lsda;
          check (Alcotest.option Alcotest.int) "no lsda" None b.lsda
      | _ -> Alcotest.fail "fde count");
      (* heights still work through the augmented CIE *)
      let rows = rows_ok ~cie (List.hd cie.fdes) in
      check (Alcotest.option Alcotest.int) "height" (Some 8)
        (Cfa_table.height_at rows 6)
  | _ -> Alcotest.fail "cie count"

let test_eh_frame_hdr_roundtrip () =
  let index = [ (0x1400, 0x700040); (0x1000, 0x700010); (0x1200, 0x700028) ] in
  let encoded = Eh_frame_hdr.encode ~addr:0x6ff000 ~eh_frame_addr:0x700000 index in
  match Eh_frame_hdr.decode ~addr:0x6ff000 encoded with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok h ->
      check Alcotest.int "eh_frame ptr" 0x700000 h.eh_frame_ptr;
      check Alcotest.int "entries" 3 (Array.length h.entries);
      (* sorted by pc *)
      check Alcotest.int "first pc" 0x1000 (fst h.entries.(0));
      (* binary search semantics *)
      check (Alcotest.option Alcotest.int) "exact" (Some 0x700010)
        (Eh_frame_hdr.search h 0x1000);
      check (Alcotest.option Alcotest.int) "inside" (Some 0x700028)
        (Eh_frame_hdr.search h 0x13ff);
      check (Alcotest.option Alcotest.int) "last" (Some 0x700040)
        (Eh_frame_hdr.search h 0x9999);
      check (Alcotest.option Alcotest.int) "before all" None
        (Eh_frame_hdr.search h 0xfff)

let suite =
  suite
  @ [
      Alcotest.test_case "personality/LSDA roundtrip" `Quick
        test_personality_lsda_roundtrip;
      Alcotest.test_case "eh_frame_hdr roundtrip + search" `Quick
        test_eh_frame_hdr_roundtrip;
    ]

(* Property: arbitrary CFI-sane FDE sets round-trip through the eh_frame
   codec (pc values, ranges and instruction streams survive). *)
let prop_eh_frame_roundtrip =
  let gen =
    QCheck.Gen.(
      let instr =
        oneof
          [
            (let* d = int_range 1 5000 in return (Cfi.Advance_loc d));
            (let* o = int_range 8 512 in return (Cfi.Def_cfa_offset o));
            (let* r = int_bound 15 and* o = int_range 1 16 in
             return (Cfi.Offset (r, o)));
            (let* r = int_bound 15 in return (Cfi.Restore r));
            return Cfi.Remember_state;
            return Cfi.Restore_state;
          ]
      in
      let fde =
        let* pc = int_range 0x1000 0x100000 in
        let* range = int_range 1 4096 in
        let* instrs = list_size (int_bound 8) instr in
        return (Eh_frame.make_fde ~pc_begin:pc ~pc_range:range instrs)
      in
      list_size (int_range 1 6) fde)
  in
  QCheck.Test.make ~name:"eh_frame roundtrip on arbitrary FDEs" ~count:200
    (QCheck.make gen)
    (fun fdes ->
      let cies = [ Eh_frame.default_cie ~fdes () ] in
      let addr = 0x700000 in
      let d = Eh_frame.decode ~addr (Eh_frame.encode ~addr cies) in
      match d.cies with
      | _ when d.diags <> [] -> false
      | [ cie ] ->
          let strip l = List.filter (fun i -> i <> Cfi.Nop) l in
          List.length cie.fdes = List.length fdes
          && List.for_all2
               (fun (a : Eh_frame.fde) (b : Eh_frame.fde) ->
                 a.pc_begin = b.pc_begin && a.pc_range = b.pc_range
                 && strip a.instrs = strip b.instrs)
               cie.fdes fdes
      | _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_eh_frame_roundtrip ]

(* --- parser totality: per-record recovery and the full DW_EH_PE menu --- *)

open Fetch_util

(* Hand-build one raw length-delimited record (length + id + body + nop
   padding), like the encoder does. *)
let add_record b ~id body =
  let len_at = Byte_buf.length b in
  Byte_buf.u32 b 0;
  Byte_buf.u32 b id;
  body ();
  while (Byte_buf.length b - len_at) mod 8 <> 0 do
    Byte_buf.u8 b 0x00
  done;
  Byte_buf.patch_u32 b ~at:len_at (Byte_buf.length b - len_at - 4)

(* A minimal "zR" CIE with pointer encoding [enc], at the buffer start. *)
let add_zr_cie b ~enc =
  add_record b ~id:0 (fun () ->
      Byte_buf.u8 b 1;
      (* version *)
      Byte_buf.cstring b "zR";
      Byte_buf.uleb128 b 1;
      Byte_buf.sleb128 b (-8);
      Byte_buf.uleb128 b 16;
      Byte_buf.uleb128 b 1;
      (* aug data: just the R encoding *)
      Byte_buf.u8 b enc)

(* CIE + one FDE whose pc_begin/pc_range bytes are produced by
   [write_pc]/[write_range] (given the buffer and the field's virtual
   address), decoded at [addr]. *)
let one_fde_section ?ptr_width ?deref ~addr ~enc ~write_pc ~write_range () =
  let b = Byte_buf.create () in
  add_zr_cie b ~enc;
  let fde_start = Byte_buf.length b in
  add_record b ~id:(fde_start + 4) (fun () ->
      write_pc b (addr + Byte_buf.length b);
      write_range b (addr + Byte_buf.length b);
      Byte_buf.uleb128 b 0 (* aug length *));
  Byte_buf.u32 b 0;
  Eh_frame.decode ?ptr_width ?deref ~addr (Byte_buf.contents b)

let check_single_fde ?(msg = "fde") d ~pc ~range =
  check Alcotest.int (msg ^ ": skips") 0 d.Eh_frame.records_skipped;
  match Eh_frame.all_fdes d.Eh_frame.cies with
  | [ f ] ->
      check Alcotest.int (msg ^ ": pc_begin") pc f.pc_begin;
      check Alcotest.int (msg ^ ": pc_range") range f.pc_range
  | l -> Alcotest.failf "%s: expected 1 FDE, got %d" msg (List.length l)

let test_pe_uleb_sleb () =
  let addr = 0x10000 in
  (* DW_EH_PE_uleb128, absolute *)
  let d =
    one_fde_section ~addr ~enc:0x01
      ~write_pc:(fun b _ -> Byte_buf.uleb128 b 0x54321)
      ~write_range:(fun b _ -> Byte_buf.uleb128 b 0x321)
      ()
  in
  check_single_fde ~msg:"uleb128" d ~pc:0x54321 ~range:0x321;
  (* DW_EH_PE_sleb128 | pcrel: negative delta back from the field *)
  let d =
    one_fde_section ~addr ~enc:0x19
      ~write_pc:(fun b field -> Byte_buf.sleb128 b (0x9000 - field))
      ~write_range:(fun b _ -> Byte_buf.sleb128 b 64)
      ()
  in
  check_single_fde ~msg:"sleb128 pcrel" d ~pc:0x9000 ~range:64

let test_pe_data2 () =
  let addr = 0x20000 in
  (* DW_EH_PE_udata2, absolute *)
  let d =
    one_fde_section ~addr ~enc:0x02
      ~write_pc:(fun b _ -> Byte_buf.u16 b 0xbeef)
      ~write_range:(fun b _ -> Byte_buf.u16 b 0x9000)
      ()
  in
  (* range 0x9000 > 2^15: must stay unsigned *)
  check_single_fde ~msg:"udata2" d ~pc:0xbeef ~range:0x9000;
  (* DW_EH_PE_sdata2 | pcrel *)
  let d =
    one_fde_section ~addr ~enc:0x1a
      ~write_pc:(fun b field -> Byte_buf.u16 b ((0x20000 - 4 - field) land 0xffff))
      ~write_range:(fun b _ -> Byte_buf.u16 b 8)
      ()
  in
  check_single_fde ~msg:"sdata2 pcrel" d ~pc:(0x20000 - 4) ~range:8

let test_pe_absptr_and_udata8 () =
  let addr = 0x30000 in
  (* DW_EH_PE_absptr in 64-bit mode *)
  let d =
    one_fde_section ~addr ~enc:0x00
      ~write_pc:(fun b _ -> Byte_buf.u64 b 0x123456789)
      ~write_range:(fun b _ -> Byte_buf.u64 b 0x1000)
      ()
  in
  check_single_fde ~msg:"absptr64" d ~pc:0x123456789 ~range:0x1000;
  (* DW_EH_PE_absptr in 32-bit mode (4-byte pointers) *)
  let d =
    one_fde_section ~ptr_width:4 ~addr ~enc:0x00
      ~write_pc:(fun b _ -> Byte_buf.u32 b 0x80001234)
      ~write_range:(fun b _ -> Byte_buf.u32 b 0x40)
      ()
  in
  check_single_fde ~msg:"absptr32" d ~pc:0x80001234 ~range:0x40;
  (* DW_EH_PE_udata8 *)
  let d =
    one_fde_section ~addr ~enc:0x04
      ~write_pc:(fun b _ -> Byte_buf.u64 b 0xabcdef0)
      ~write_range:(fun b _ -> Byte_buf.u64 b 24)
      ()
  in
  check_single_fde ~msg:"udata8" d ~pc:0xabcdef0 ~range:24

let test_pe_datarel_indirect () =
  let addr = 0x40000 in
  (* DW_EH_PE_datarel | udata4: relative to the section start *)
  let d =
    one_fde_section ~addr ~enc:0x33
      ~write_pc:(fun b _ -> Byte_buf.u32 b 0x500)
      ~write_range:(fun b _ -> Byte_buf.u32 b 16)
      ()
  in
  check_single_fde ~msg:"datarel" d ~pc:(addr + 0x500) ~range:16;
  (* DW_EH_PE_indirect | udata4: value is the address of the pointer *)
  let d =
    one_fde_section ~addr ~enc:0x83
      ~deref:(fun a -> if a = 0x7000 then Some 0x424242 else None)
      ~write_pc:(fun b _ -> Byte_buf.u32 b 0x7000)
      ~write_range:(fun b _ -> Byte_buf.u32 b 32)
      ()
  in
  check_single_fde ~msg:"indirect" d ~pc:0x424242 ~range:32

(* Satellite: a 4-byte pc_range >= 2^31 must not go negative (the old
   parser read it through i32). *)
let test_pc_range_unsigned () =
  let addr = 0x50000 in
  let d =
    one_fde_section ~addr ~enc:0x1b (* pcrel sdata4, GCC's default *)
      ~write_pc:(fun b field -> Byte_buf.i32 b (0x51000 - field))
      ~write_range:(fun b _ -> Byte_buf.u32 b 0x88888888)
      ()
  in
  check_single_fde ~msg:"huge range" d ~pc:0x51000 ~range:0x88888888

let test_pe_omit_personality () =
  (* "zPR" CIE whose P encoding is DW_EH_PE_omit: no personality bytes *)
  let addr = 0x60000 in
  let b = Byte_buf.create () in
  add_record b ~id:0 (fun () ->
      Byte_buf.u8 b 1;
      Byte_buf.cstring b "zPR";
      Byte_buf.uleb128 b 1;
      Byte_buf.sleb128 b (-8);
      Byte_buf.uleb128 b 16;
      Byte_buf.uleb128 b 2;
      Byte_buf.u8 b 0xff;
      (* P: omit *)
      Byte_buf.u8 b 0x1b (* R: pcrel sdata4 *));
  let fde_start = Byte_buf.length b in
  add_record b ~id:(fde_start + 4) (fun () ->
      Byte_buf.i32 b (0x61000 - (addr + Byte_buf.length b));
      Byte_buf.u32 b 48;
      Byte_buf.uleb128 b 0);
  Byte_buf.u32 b 0;
  let d = Eh_frame.decode ~addr (Byte_buf.contents b) in
  check Alcotest.int "no skips" 0 d.records_skipped;
  (match d.cies with
  | [ cie ] ->
      check (Alcotest.option Alcotest.int) "personality omitted" None
        cie.personality
  | _ -> Alcotest.fail "cie count");
  check_single_fde ~msg:"omit-P" d ~pc:0x61000 ~range:48

(* Unknown augmentation characters are skipped via the 'z' length and the
   record survives with a warning diagnostic. *)
let test_unknown_augmentation_tolerated () =
  let addr = 0x70000 in
  let b = Byte_buf.create () in
  add_record b ~id:0 (fun () ->
      Byte_buf.u8 b 1;
      Byte_buf.cstring b "zRX";
      (* X: unknown *)
      Byte_buf.uleb128 b 1;
      Byte_buf.sleb128 b (-8);
      Byte_buf.uleb128 b 16;
      Byte_buf.uleb128 b 3;
      Byte_buf.u8 b 0x1b;
      (* R *)
      Byte_buf.u16 b 0xdead (* X's unknown payload, skipped via length *));
  let fde_start = Byte_buf.length b in
  add_record b ~id:(fde_start + 4) (fun () ->
      Byte_buf.i32 b (0x71000 - (addr + Byte_buf.length b));
      Byte_buf.u32 b 16;
      Byte_buf.uleb128 b 0);
  Byte_buf.u32 b 0;
  let d = Eh_frame.decode ~addr (Byte_buf.contents b) in
  check Alcotest.int "both records decoded" 2 d.records_ok;
  check Alcotest.int "no skips" 0 d.records_skipped;
  (match d.diags with
  | [ { kind = Diag.Unknown_augmentation; fatal = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected one non-fatal unknown-augmentation diag");
  check_single_fde ~msg:"aug-tolerant" d ~pc:0x71000 ~range:16

(* Acceptance criterion: a section with one corrupted record still yields
   every other FDE (recovered count = total - 1). *)
let test_one_bad_record_recovers_rest () =
  let addr = 0x700000 in
  let fdes =
    List.map
      (fun i ->
        Eh_frame.make_fde ~pc_begin:(0x1000 + (0x100 * i)) ~pc_range:0x40
          [ Cfi.Advance_loc 1; Cfi.Def_cfa_offset 16 ])
      [ 0; 1; 2; 3; 4 ]
  in
  let cies = [ Eh_frame.default_cie ~fdes () ] in
  let encoded, index = Eh_frame.encode_with_index ~addr cies in
  check Alcotest.int "index size" 5 (List.length index);
  (* smash the middle FDE's CIE pointer so it references no CIE *)
  let victim_pc, victim_vaddr = List.nth index 2 in
  let victim_off = victim_vaddr - addr in
  let bytes = Bytes.of_string encoded in
  Bytes.set_int32_le bytes (victim_off + 4) 0x66666666l;
  let d = Eh_frame.decode ~addr (Bytes.to_string bytes) in
  let recovered = Eh_frame.all_fdes d.cies in
  check Alcotest.int "recovered = total - 1" 4 (List.length recovered);
  check Alcotest.int "one record skipped" 1 d.records_skipped;
  check Alcotest.int "records ok (CIE + 4 FDEs)" 5 d.records_ok;
  check Alcotest.bool "victim gone" false
    (List.exists (fun (f : Eh_frame.fde) -> f.pc_begin = victim_pc) recovered);
  (match d.diags with
  | [ { kind = Diag.Unknown_cie; fatal = true; offset; _ } ] ->
      check Alcotest.int "diag offset" victim_off offset
  | _ -> Alcotest.fail "expected exactly one unknown-CIE diag");
  List.iteri
    (fun i (pc, _) ->
      if i <> 2 then
        check Alcotest.bool (Printf.sprintf "fde %d survives" i) true
          (List.exists
             (fun (f : Eh_frame.fde) -> f.pc_begin = pc)
             recovered))
    index

let test_truncated_section_recovers_prefix () =
  let addr = 0x700000 in
  let fdes =
    List.map
      (fun i -> Eh_frame.make_fde ~pc_begin:(0x2000 + (0x80 * i)) ~pc_range:16 [])
      [ 0; 1; 2 ]
  in
  let encoded, index =
    Eh_frame.encode_with_index ~addr [ Eh_frame.default_cie ~fdes () ]
  in
  (* cut into the last FDE's body *)
  let _, last_vaddr = List.nth index 2 in
  let cut = last_vaddr - addr + 6 in
  let d = Eh_frame.decode ~addr (String.sub encoded 0 cut) in
  check Alcotest.int "two FDEs recovered" 2
    (List.length (Eh_frame.all_fdes d.cies));
  check Alcotest.bool "truncation reported" true
    (List.exists (fun (g : Diag.t) -> g.kind = Diag.Truncated) d.diags)

let test_terminator_stops_parse () =
  let addr = 0x700000 in
  let encoded =
    Eh_frame.encode ~addr
      [
        Eh_frame.default_cie
          ~fdes:[ Eh_frame.make_fde ~pc_begin:0x3000 ~pc_range:8 [] ]
          ();
      ]
  in
  (* garbage after the zero-length terminator is never looked at *)
  let d = Eh_frame.decode ~addr (encoded ^ "\xde\xad\xbe\xef\x01\x02\x03") in
  check Alcotest.int "records" 2 d.records_ok;
  check Alcotest.bool "no diags" true (d.diags = []);
  check_single_fde ~msg:"pre-terminator" d ~pc:0x3000 ~range:8

(* A record whose length field is garbage: skipped with a diagnostic, and
   the parser resynchronizes at the declared boundary. *)
let test_bad_length_resync () =
  let addr = 0x700000 in
  let b = Byte_buf.create () in
  (* length 2: too short to hold an id field; resync lands just past it *)
  Byte_buf.u32 b 2;
  Byte_buf.u16 b 0xeeee;
  let good_start = Byte_buf.length b in
  let inner = Byte_buf.create () in
  add_zr_cie inner ~enc:0x1b;
  let fde_start = Byte_buf.length inner in
  add_record inner ~id:(fde_start + 4) (fun () ->
      Byte_buf.i32 inner (0x4000 - (addr + good_start + Byte_buf.length inner));
      Byte_buf.u32 inner 32;
      Byte_buf.uleb128 inner 0);
  Byte_buf.u32 inner 0;
  Byte_buf.string b (Byte_buf.contents inner);
  let d = Eh_frame.decode ~addr (Byte_buf.contents b) in
  check Alcotest.int "resynced records" 2 d.records_ok;
  check Alcotest.int "bad record skipped" 1 d.records_skipped;
  match Eh_frame.all_fdes d.cies with
  | [ f ] ->
      check Alcotest.int "post-resync pc" 0x4000 f.pc_begin;
      check Alcotest.int "post-resync range" 32 f.pc_range
  | l -> Alcotest.failf "expected 1 FDE, got %d" (List.length l)

(* 64-bit DWARF records (0xffffffff marker + 8-byte length + 8-byte id)
   round-trip through the encoder and decode like their 32-bit siblings. *)
let test_dwarf64_roundtrip () =
  let addr = 0x700000 in
  let cies =
    [
      Eh_frame.default_cie ~personality:0x401234
        ~fdes:
          [
            Eh_frame.make_fde ~pc_begin:0x5000 ~pc_range:16
              [ Cfi.Def_cfa_offset 16 ];
            Eh_frame.make_fde ~lsda:0x6f0010 ~pc_begin:0x5100 ~pc_range:64 [];
          ]
        ();
    ]
  in
  let encoded = Eh_frame.encode ~format64:true ~addr cies in
  (* every record leads with the 64-bit length marker *)
  check Alcotest.int "marker" 0xffffffff
    (Int32.to_int (String.get_int32_le encoded 0) land 0xffffffff);
  let d = Eh_frame.decode ~addr encoded in
  check Alcotest.int "records ok" 3 d.records_ok;
  check Alcotest.int "none skipped" 0 d.records_skipped;
  match d.cies with
  | [ c ] ->
      check (Alcotest.option Alcotest.int) "personality" (Some 0x401234)
        c.personality;
      (match c.fdes with
      | [ f1; f2 ] ->
          check Alcotest.int "pc1" 0x5000 f1.pc_begin;
          check Alcotest.int "range1" 16 f1.pc_range;
          check Alcotest.bool "instrs1" true
            (List.mem (Cfi.Def_cfa_offset 16) f1.instrs);
          check Alcotest.int "pc2" 0x5100 f2.pc_begin;
          check (Alcotest.option Alcotest.int) "lsda2" (Some 0x6f0010) f2.lsda
      | l -> Alcotest.failf "expected 2 FDEs, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 CIE, got %d" (List.length l)

(* 32- and 64-bit records interleave in one section, and a malformed
   64-bit record is skipped with resync like any other. *)
let test_dwarf64_mixed_and_resync () =
  let addr = 0x700000 in
  let b = Byte_buf.create () in
  (* malformed 64-bit record: length 8 covers only the id field, so the
     CIE body truncates inside its own boundary *)
  Byte_buf.u32 b 0xffffffff;
  Byte_buf.u64 b 8;
  Byte_buf.u64 b 0;
  (* a good 64-bit CIE + FDE, terminator stripped *)
  let blob64 =
    Eh_frame.encode ~format64:true
      ~addr:(addr + Byte_buf.length b)
      [
        Eh_frame.default_cie
          ~fdes:[ Eh_frame.make_fde ~pc_begin:0x5000 ~pc_range:16 [] ]
          ();
      ]
  in
  Byte_buf.string b (String.sub blob64 0 (String.length blob64 - 4));
  (* then a 32-bit CIE + FDE *)
  let blob32 =
    Eh_frame.encode
      ~addr:(addr + Byte_buf.length b)
      [
        Eh_frame.default_cie
          ~fdes:[ Eh_frame.make_fde ~pc_begin:0x6000 ~pc_range:32 [] ]
          ();
      ]
  in
  Byte_buf.string b blob32;
  let d = Eh_frame.decode ~addr (Byte_buf.contents b) in
  check Alcotest.int "four good records" 4 d.records_ok;
  check Alcotest.int "one skipped" 1 d.records_skipped;
  check Alcotest.bool "truncation diag" true
    (List.exists
       (fun (g : Diag.t) -> g.kind = Diag.Truncated && g.fatal)
       d.diags);
  let pcs =
    List.map (fun (f : Eh_frame.fde) -> f.pc_begin) (Eh_frame.all_fdes d.cies)
  in
  check Alcotest.(list int) "both FDEs survive" [ 0x5000; 0x6000 ]
    (List.sort compare pcs)

(* An undecodable CFI opcode degrades the one record (prefix kept) with a
   warning — it no longer aborts the whole section. *)
let test_bad_cfi_keeps_record () =
  let addr = 0x700000 in
  let b = Byte_buf.create () in
  add_zr_cie b ~enc:0x1b;
  let fde_start = Byte_buf.length b in
  add_record b ~id:(fde_start + 4) (fun () ->
      Byte_buf.i32 b (0x6000 - (addr + Byte_buf.length b));
      Byte_buf.u32 b 64;
      Byte_buf.uleb128 b 0;
      Cfi.encode b (Cfi.Def_cfa_offset 16);
      Byte_buf.u8 b 0x3d (* DW_CFA vendor-range opcode we don't decode *));
  Byte_buf.u32 b 0;
  let d = Eh_frame.decode ~addr (Byte_buf.contents b) in
  check Alcotest.int "no skips" 0 d.records_skipped;
  (match Eh_frame.all_fdes d.cies with
  | [ f ] ->
      check Alcotest.int "pc" 0x6000 f.pc_begin;
      check Alcotest.bool "prefix kept" true
        (List.mem (Cfi.Def_cfa_offset 16) f.instrs)
  | _ -> Alcotest.fail "fde count");
  check Alcotest.bool "bad_cfi diag" true
    (List.exists
       (fun (g : Diag.t) -> g.kind = Diag.Bad_cfi && not g.fatal)
       d.diags)

(* Regression seeds: inputs that crashed (or would have crashed) earlier
   parsers — each must decode without raising.  Kept as raw fixtures. *)
let fuzz_regression_fixtures =
  [
    (* uleb128 augmentation length whose 63-bit overflow went negative *)
    ( "negative aug_len",
      "\x14\x00\x00\x00\x00\x00\x00\x00\x01zR\x00\x01\x78\x10\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x1b" );
    (* cstring (augmentation) running to the end of the section *)
    ("unterminated augmentation", "\x10\x00\x00\x00\x00\x00\x00\x00\x01zRzRzRzRzRzR");
    (* record length pointing one byte past the section end *)
    ("length overruns by one", "\x09\x00\x00\x00\x00\x00\x00\x00\x01z\x00\x00");
    (* FDE before any CIE *)
    ("orphan FDE", "\x0c\x00\x00\x00\x10\x00\x00\x00\x00\x10\x40\x00\x20\x00\x00\x00");
    (* 64-bit DWARF marker with a truncated extended length *)
    ("truncated dwarf64", "\xff\xff\xff\xff\x01\x02\x03");
    (* zero-length-terminator only *)
    ("bare terminator", "\x00\x00\x00\x00");
    (* sub-4-byte tail *)
    ("tiny tail", "\x01\x02");
  ]

let test_fuzz_fixtures_total () =
  List.iter
    (fun (name, bytes) ->
      let d = Eh_frame.decode ~addr:0x10000 bytes in
      (* decoding completed without raising; sanity: counters consistent *)
      check Alcotest.int name d.records_skipped
        (List.length (List.filter (fun (g : Diag.t) -> g.fatal) d.diags)))
    fuzz_regression_fixtures

(* Surviving mutants promoted from fuzz_eh_frame runs over the
   adversarial-scenario bases (DWARF64 and overlap-mangled sections,
   mutation seed 24221), minimized to their shortest interesting prefix.
   Each pins the exact recovery the decoder achieved when promoted:
   (name, bytes, records_ok, records_skipped, fdes recovered). *)
let adversarial_fuzz_fixtures =
  [
    (* 64-bit zPLR CIE decoded in full, then a 64-bit record whose
       extended length overruns the section: skipped, nothing lost *)
    ( "dwarf64 CIE kept ahead of truncated 64-bit record",
      "\xff\xff\xff\xff\x24\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x7a\x50\x4c\x52\x00\x01\x78\x10\x07\x1b\x41\x1d\xd0\xff\x1b\x1b\x0c\x07\x08\x90\x01\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x1c\x00\x00\x00",
      1, 1, 0 );
    (* corrupt 64-bit FDE body mid-section: the record is dropped but
       resynchronization still reaches and decodes the FDE after it *)
    ( "dwarf64 resync recovers FDE after corrupt record",
      "\xff\xff\xff\xff\x24\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x7a\x50\x4c\x52\x00\x01\x78\x10\x07\x1b\x41\x1d\xd0\xff\x1b\x1b\x0c\x07\x08\x90\x01\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x1c\x00\x00\x00\x00\x00\x00\x00\x3c\x00\x00\x00\x00\x00\x00\x00\xbc\x0f\xd0\xff\x09\x00\x00\x00\x04\xb3\xff\x8f\xff\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x24\x00\x00\x00",
      2, 1, 1 );
    (* overlap-mangled section truncated inside its first FDE: the zR
       CIE survives *)
    ( "overlap CIE kept ahead of truncated FDE",
      "\x14\x00\x00\x00\x00\x00\x00\x00\x01\x7a\x52\x00\x01\x78\x10\x01\x1b\x0c\x07\x08\x90\x01\x00\x00\x14\x00\x00\x00\x1c\x00\x00\x00",
      1, 1, 0 );
    (* corrupt FDE in an overlap-mangled list: dropped, next FDE kept *)
    ( "overlap resync recovers FDE after corrupt record",
      "\x14\x00\x00\x00\x00\x00\x00\x00\x01\x7a\x52\x00\x01\x78\x10\x01\x1b\x0c\x07\x08\x90\x01\x00\x00\x14\x00\x00\x00\x1c\x00\x00\x00\x00\x12\xd0\xff\x1d\x00\x00\x00\x00\x48\x0e\x10\x00\x00\x00\x00\x1c\x00\x00\x00\x34\x00\x00\x00",
      2, 1, 1 );
  ]

let test_adversarial_fuzz_fixtures () =
  List.iter
    (fun (name, bytes, ok, skipped, fdes) ->
      let d = Eh_frame.decode ~addr:0x700000 bytes in
      check Alcotest.int (name ^ ": records_ok") ok d.records_ok;
      check Alcotest.int (name ^ ": records_skipped") skipped d.records_skipped;
      check Alcotest.int (name ^ ": fdes recovered") fdes
        (List.length (Eh_frame.all_fdes d.cies)))
    adversarial_fuzz_fixtures

(* Property: decode is total on arbitrary bytes. *)
let prop_decode_total =
  QCheck.Test.make ~name:"eh_frame decode is total on arbitrary bytes"
    ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 256))
    (fun s ->
      let d = Eh_frame.decode ~addr:0x400000 s in
      d.records_skipped = List.length (List.filter (fun (g : Diag.t) -> g.fatal) d.diags))

let suite =
  suite
  @ [
      Alcotest.test_case "DW_EH_PE uleb128/sleb128" `Quick test_pe_uleb_sleb;
      Alcotest.test_case "DW_EH_PE udata2/sdata2" `Quick test_pe_data2;
      Alcotest.test_case "DW_EH_PE absptr/udata8" `Quick test_pe_absptr_and_udata8;
      Alcotest.test_case "DW_EH_PE datarel/indirect" `Quick test_pe_datarel_indirect;
      Alcotest.test_case "pc_range >= 2^31 stays unsigned" `Quick test_pc_range_unsigned;
      Alcotest.test_case "DW_EH_PE omit personality" `Quick test_pe_omit_personality;
      Alcotest.test_case "unknown augmentation tolerated" `Quick
        test_unknown_augmentation_tolerated;
      Alcotest.test_case "one bad record: rest recovered" `Quick
        test_one_bad_record_recovers_rest;
      Alcotest.test_case "truncated section: prefix recovered" `Quick
        test_truncated_section_recovers_prefix;
      Alcotest.test_case "terminator stops the parse" `Quick test_terminator_stops_parse;
      Alcotest.test_case "bad length: skip + resync" `Quick test_bad_length_resync;
      Alcotest.test_case "64-bit DWARF roundtrip" `Quick test_dwarf64_roundtrip;
      Alcotest.test_case "64-bit DWARF mixed + resync" `Quick
        test_dwarf64_mixed_and_resync;
      Alcotest.test_case "bad CFI degrades one record" `Quick test_bad_cfi_keeps_record;
      Alcotest.test_case "fuzz regression fixtures" `Quick test_fuzz_fixtures_total;
      Alcotest.test_case "adversarial fuzz mutants (promoted)" `Quick
        test_adversarial_fuzz_fixtures;
      QCheck_alcotest.to_alcotest prop_decode_total;
      Alcotest.test_case "height oracle: later FDE evicts overlaps" `Quick
        test_height_oracle_override;
      Alcotest.test_case "cfa rows: unsupported rules are errors" `Quick
        test_cfa_rows_unsupported;
      Alcotest.test_case "height oracle: a failing FDE evicts nothing" `Quick
        test_height_oracle_unsupported_fde;
      Alcotest.test_case "height oracle: along == height_at" `Quick
        test_height_oracle_along;
    ]
