(* Tests for fetch.x86: encode/decode round trips, assembler layout,
   semantics summaries. *)

open Fetch_x86
module I = Insn

let check = Alcotest.check

let encode_at ~addr insn =
  let b = Fetch_util.Byte_buf.create () in
  Encode.emit b ~addr ~resolve:(function I.To_addr a -> a | I.To_label _ -> 0) insn;
  Fetch_util.Byte_buf.contents b

(* Round-trip a concrete instruction through encode+decode. *)
let roundtrip ?(addr = 0x1000) insn =
  let bytes = encode_at ~addr insn in
  match Decode.decode ~addr bytes with
  | None -> Alcotest.failf "decode failed for %s" (I.to_string insn)
  | Some (decoded, len) ->
      check Alcotest.int
        (Printf.sprintf "length of %s" (I.to_string insn))
        (String.length bytes) len;
      decoded

let expect_same insn =
  let decoded = roundtrip insn in
  if decoded <> insn then
    Alcotest.failf "round trip mismatch: %s vs %s" (I.to_string insn)
      (I.to_string decoded)

let sample_regs = [ Reg.Rax; Rcx; Rsp; Rbp; Rsi; Rdi; R8; R12; R13; R15 ]

let test_push_pop () =
  List.iter (fun r -> expect_same (I.Push r)) sample_regs;
  List.iter (fun r -> expect_same (I.Pop r)) sample_regs

let test_mov_forms () =
  expect_same (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.Rbx));
  expect_same (I.Mov (I.W32, I.Reg Reg.R9, I.Reg Reg.Rdi));
  expect_same (I.Mov (I.W64, I.Reg Reg.Rcx, I.Imm 77));
  expect_same (I.Mov (I.W32, I.Reg Reg.Rcx, I.Imm 77));
  expect_same (I.Mov (I.W64, I.Reg Reg.Rdx, I.Mem (I.mem ~base:Reg.Rbp ~disp:(-8) ())));
  expect_same (I.Mov (I.W64, I.Mem (I.mem ~base:Reg.Rsp ~disp:24 ()), I.Reg Reg.Rsi));
  expect_same (I.Mov (I.W64, I.Mem (I.mem ~disp:0x600010 ()), I.Reg Reg.Rax));
  expect_same (I.Mov (I.W64, I.Reg Reg.Rax, I.Mem (I.rip_rel 0x1234)));
  expect_same (I.Movabs (Reg.R11, 0x1122334455667788))

let test_mem_addressing_modes () =
  (* exercise SIB, disp8/disp32, r12/r13/rbp corner cases *)
  let mems =
    [
      I.mem ~base:Reg.Rax ();
      I.mem ~base:Reg.Rbp ();
      (* rbp base forces disp8 *)
      I.mem ~base:Reg.R13 ();
      I.mem ~base:Reg.Rsp ();
      (* rsp base forces SIB *)
      I.mem ~base:Reg.R12 ();
      I.mem ~base:Reg.Rbx ~disp:127 ();
      I.mem ~base:Reg.Rbx ~disp:(-128) ();
      I.mem ~base:Reg.Rbx ~disp:128 ();
      I.mem ~base:Reg.Rbx ~disp:(-129) ();
      I.mem ~base:Reg.Rdi ~index:(Reg.Rcx, 4) ~disp:16 ();
      I.mem ~base:Reg.R8 ~index:(Reg.R9, 8) ();
      I.mem ~index:(Reg.Rdx, 8) ~disp:0x500000 ();
      I.mem ~disp:0x500100 ();
    ]
  in
  List.iter (fun m -> expect_same (I.Lea (Reg.Rax, m))) mems;
  List.iter
    (fun m -> expect_same (I.Mov (I.W64, I.Reg Reg.Rcx, I.Mem m)))
    mems

let test_arith_forms () =
  List.iter
    (fun op ->
      expect_same (I.Arith (op, I.W64, I.Reg Reg.Rax, I.Reg Reg.Rdx));
      expect_same (I.Arith (op, I.W32, I.Reg Reg.R10, I.Reg Reg.Rbx));
      expect_same (I.Arith (op, I.W64, I.Reg Reg.Rsp, I.Imm 8));
      expect_same (I.Arith (op, I.W64, I.Reg Reg.Rsp, I.Imm 1024));
      expect_same
        (I.Arith (op, I.W64, I.Reg Reg.Rdi, I.Mem (I.mem ~base:Reg.Rax ~disp:8 ()))))
    [ I.Add; I.Sub; I.And; I.Or; I.Xor; I.Cmp ]

let test_misc_insns () =
  expect_same (I.Test (I.W64, Reg.Rax, Reg.Rax));
  expect_same (I.Test (I.W32, Reg.Rdi, Reg.Rdi));
  expect_same (I.Imul (Reg.Rax, I.Reg Reg.Rcx));
  expect_same (I.Shift (`Shl, Reg.Rax, 3));
  expect_same (I.Shift (`Sar, Reg.R9, 63));
  expect_same (I.Neg (I.W64, Reg.Rdx));
  expect_same (I.Inc Reg.Rbx);
  expect_same (I.Dec Reg.R14);
  expect_same (I.Movsxd (Reg.Rax, I.mem ~base:Reg.R11 ~index:(Reg.Rcx, 4) ()));
  expect_same I.Ret;
  expect_same I.Leave;
  expect_same I.Endbr64;
  expect_same I.Ud2;
  expect_same I.Int3;
  expect_same I.Hlt;
  expect_same I.Syscall;
  expect_same I.Cpuid

let test_nops () =
  for n = 1 to 9 do
    expect_same (I.Nop n)
  done

let test_control_flow_targets () =
  (* call/jmp/jcc rel32 resolve to absolute targets on decode *)
  let addr = 0x401000 in
  let cases =
    [
      I.Call (I.To_addr 0x402000);
      I.Jmp (I.To_addr 0x400800);
      I.Jcc (I.Ne, I.To_addr 0x401800);
      I.Jcc (I.A, I.To_addr 0x401004);
    ]
  in
  List.iter
    (fun insn ->
      let d = roundtrip ~addr insn in
      if d <> insn then
        Alcotest.failf "target mismatch: %s vs %s" (I.to_string insn) (I.to_string d))
    cases;
  (* short forms *)
  let d = roundtrip ~addr (I.Jmp_short (I.To_addr (addr + 10))) in
  check Alcotest.bool "short jmp" true (d = I.Jmp_short (I.To_addr (addr + 10)));
  let d = roundtrip ~addr (I.Jcc_short (I.E, I.To_addr (addr - 20))) in
  check Alcotest.bool "short jcc" true (d = I.Jcc_short (I.E, I.To_addr (addr - 20)))

let test_indirect_calls () =
  expect_same (I.Call_ind (I.Reg Reg.Rax));
  expect_same (I.Call_ind (I.Reg Reg.R11));
  expect_same (I.Call_ind (I.Mem (I.rip_rel 0x100)));
  expect_same (I.Jmp_ind (I.Reg Reg.Rdx));
  expect_same (I.Jmp_ind (I.Mem (I.mem ~index:(Reg.Rax, 8) ~disp:0x500000 ())))

let test_rip_sym_resolution () =
  (* lea rax, [rip+target] with a symbolic target resolves correctly *)
  let addr = 0x401000 in
  let target = 0x500040 in
  let b = Fetch_util.Byte_buf.create () in
  Encode.emit b ~addr
    ~resolve:(function I.To_addr a -> a | I.To_label _ -> Alcotest.fail "label")
    (I.Lea (Reg.Rax, I.rip_sym (I.To_addr target)));
  let bytes = Fetch_util.Byte_buf.contents b in
  match Decode.decode ~addr bytes with
  | Some (I.Lea (Reg.Rax, m), len) ->
      check Alcotest.bool "rip rel" true m.rip_rel;
      check Alcotest.int "resolved disp" target (addr + len + m.disp)
  | _ -> Alcotest.fail "decode of rip_sym lea failed"

let test_invalid_bytes () =
  let invalid = [ "\x06"; "\x0f\xff"; "\xd6"; "\x66\x50"; "\xf3\x01\xc0" ] in
  List.iter
    (fun s ->
      match Decode.decode ~addr:0 s with
      | None -> ()
      | Some (i, _) ->
          Alcotest.failf "expected invalid for %s, got %s"
            (Fetch_util.Hex.of_string s) (I.to_string i))
    invalid;
  (* truncated instruction *)
  check Alcotest.bool "truncated call" true (Decode.decode ~addr:0 "\xe8\x01\x02" = None)

let test_rep_ret () =
  match Decode.decode ~addr:0 "\xf3\xc3" with
  | Some (I.Ret, 2) -> ()
  | _ -> Alcotest.fail "rep ret should decode as Ret/2"

let test_asm_labels () =
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Mov (I.W32, I.Reg Reg.Rax, I.Imm 1));
      Asm.I (I.Call (I.To_label "g"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "g";
      Asm.I I.Ret;
    ]
  in
  let r = Asm.assemble ~base:0x1000 items in
  check Alcotest.int "f at base" 0x1000 (Asm.label_addr r "f");
  check Alcotest.int "g aligned" 0 (Asm.label_addr r "g" mod 16);
  (* the call must land exactly on g *)
  let call_off = Asm.label_addr r "f" + 5 - r.base in
  match Decode.decode ~addr:(r.base + call_off) ~pos:call_off r.code with
  | Some (I.Call (I.To_addr t), _) ->
      check Alcotest.int "call resolves to g" (Asm.label_addr r "g") t
  | _ -> Alcotest.fail "expected call"

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate labels rejected"
    (Invalid_argument "Asm: duplicate label x") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.Label "x"; Asm.Label "x" ]))

let test_align_is_nops () =
  let items = [ Asm.I I.Ret; Asm.Align 16; Asm.Label "end" ] in
  let r = Asm.assemble ~base:0 items in
  check Alcotest.int "end at 16" 16 (Asm.label_addr r "end");
  (* every padding byte decodes as part of a NOP *)
  let rec walk pos =
    if pos < 16 then
      match Decode.decode ~addr:pos ~pos r.code with
      | Some (I.Nop _, len) -> walk (pos + len)
      | _ -> Alcotest.failf "non-nop padding at %d" pos
  in
  walk 1

let test_semantics_flow () =
  let open Semantics in
  (match flow (I.Jmp (I.To_addr 5)) with
  | Jump (Direct 5) -> ()
  | _ -> Alcotest.fail "jmp flow");
  (match flow (I.Call_ind (I.Reg Reg.Rax)) with
  | Callf (Indirect _) -> ()
  | _ -> Alcotest.fail "call ind flow");
  check Alcotest.bool "ret" true (flow I.Ret = Ret);
  check Alcotest.bool "ud2 halts" true (flow I.Ud2 = Halt);
  check Alcotest.bool "nop falls" true (flow (I.Nop 3) = Fall)

let test_semantics_sp () =
  let open Semantics in
  check (Alcotest.option Alcotest.int) "push" (Some (-8)) (sp_delta (I.Push Reg.Rax));
  check (Alcotest.option Alcotest.int) "pop" (Some 8) (sp_delta (I.Pop Reg.Rbx));
  check (Alcotest.option Alcotest.int) "sub rsp"
    (Some (-32))
    (sp_delta (I.Arith (I.Sub, I.W64, I.Reg Reg.Rsp, I.Imm 32)));
  check (Alcotest.option Alcotest.int) "add rsp" (Some 40)
    (sp_delta (I.Arith (I.Add, I.W64, I.Reg Reg.Rsp, I.Imm 40)));
  check (Alcotest.option Alcotest.int) "leave unknown" None (sp_delta I.Leave);
  check (Alcotest.option Alcotest.int) "mov rsp unknown" None
    (sp_delta (I.Mov (I.W64, I.Reg Reg.Rsp, I.Reg Reg.Rbp)));
  check (Alcotest.option Alcotest.int) "call net zero" (Some 0)
    (sp_delta (I.Call (I.To_addr 0)))

let test_semantics_uses_defs () =
  let open Semantics in
  (* push is a save, not a use *)
  check (Alcotest.list Alcotest.string) "push uses nothing" []
    (List.map Reg.name64 (uses (I.Push Reg.Rbp)));
  (* xor r,r defines without reading *)
  check Alcotest.bool "xor zeroing" true
    (uses (I.Arith (I.Xor, I.W32, I.Reg Reg.Rax, I.Reg Reg.Rax)) = []);
  check Alcotest.bool "xor defines" true
    (defs (I.Arith (I.Xor, I.W32, I.Reg Reg.Rax, I.Reg Reg.Rax)) = Reg.bit Reg.Rax);
  (* mov rbp, rsp defines rbp and reads only rsp (elided) *)
  check Alcotest.bool "mov rbp,rsp" true
    (uses (I.Mov (I.W64, I.Reg Reg.Rbp, I.Reg Reg.Rsp)) = []);
  check Alcotest.bool "mem uses base+index" true
    (List.sort compare
       (uses (I.Mov (I.W64, I.Reg Reg.Rax, I.Mem (I.mem ~base:Reg.Rbx ~index:(Reg.Rcx, 8) ()))))
    = List.sort compare [ Reg.Rbx; Reg.Rcx ])

(* Property: every instruction the generator-era encoder can produce decodes
   back to itself at the right length. *)
let arbitrary_insn =
  let open QCheck.Gen in
  let reg = oneofl sample_regs in
  let nonsp = oneofl [ Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx; Reg.Rsi; Reg.Rdi; Reg.R8; Reg.R12 ] in
  let width = oneofl [ I.W32; I.W64 ] in
  let memop =
    let* b = nonsp in
    let* d = int_range (-200) 200 in
    return (I.mem ~base:b ~disp:d ())
  in
  oneof
    [
      (let* r = reg in return (I.Push r));
      (let* r = reg in return (I.Pop r));
      (let* w = width and* d = nonsp and* s = nonsp in
       return (I.Mov (w, I.Reg d, I.Reg s)));
      (let* w = width and* d = nonsp and* v = int_range (-1000) 1000 in
       return (I.Mov (w, I.Reg d, I.Imm v)));
      (let* d = nonsp and* m = memop in return (I.Mov (I.W64, I.Reg d, I.Mem m)));
      (let* s = nonsp and* m = memop in return (I.Mov (I.W64, I.Mem m, I.Reg s)));
      (let* d = nonsp and* m = memop in return (I.Lea (d, m)));
      (let* op = oneofl [ I.Add; I.Sub; I.And; I.Or; I.Xor; I.Cmp ]
       and* w = width and* d = nonsp and* s = nonsp in
       return (I.Arith (op, w, I.Reg d, I.Reg s)));
      (let* op = oneofl [ I.Add; I.Sub; I.Cmp ]
       and* d = nonsp and* v = int_range (-300) 300 in
       return (I.Arith (op, I.W64, I.Reg d, I.Imm v)));
      (let* a = nonsp and* b = nonsp in return (I.Test (I.W64, a, b)));
      return I.Ret;
      return I.Leave;
      (let* n = int_range 1 9 in return (I.Nop n));
    ]

let prop_insn_roundtrip =
  QCheck.Test.make ~name:"instruction encode/decode roundtrip" ~count:1000
    (QCheck.make arbitrary_insn ~print:I.to_string)
    (fun insn ->
      let bytes = encode_at ~addr:0x4000 insn in
      match Decode.decode ~addr:0x4000 bytes with
      | Some (d, len) -> d = insn && len = String.length bytes
      | None -> false)

(* Property: decoding never reads past the declared instruction length and
   never crashes on arbitrary bytes. *)
let prop_decode_total =
  QCheck.Test.make ~name:"decoder is total on random bytes" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 20))
    (fun s ->
      match Decode.decode ~addr:0 s with
      | None -> true
      | Some (_, len) -> len > 0 && len <= String.length s)

let suite =
  [
    Alcotest.test_case "push/pop all regs" `Quick test_push_pop;
    Alcotest.test_case "mov forms" `Quick test_mov_forms;
    Alcotest.test_case "memory addressing modes" `Quick test_mem_addressing_modes;
    Alcotest.test_case "arith forms" `Quick test_arith_forms;
    Alcotest.test_case "misc instructions" `Quick test_misc_insns;
    Alcotest.test_case "canonical nops" `Quick test_nops;
    Alcotest.test_case "control flow targets" `Quick test_control_flow_targets;
    Alcotest.test_case "indirect call/jmp" `Quick test_indirect_calls;
    Alcotest.test_case "rip-relative symbol resolution" `Quick test_rip_sym_resolution;
    Alcotest.test_case "invalid byte sequences" `Quick test_invalid_bytes;
    Alcotest.test_case "rep ret" `Quick test_rep_ret;
    Alcotest.test_case "assembler label layout" `Quick test_asm_labels;
    Alcotest.test_case "assembler duplicate label" `Quick test_asm_duplicate_label;
    Alcotest.test_case "alignment padding is nops" `Quick test_align_is_nops;
    Alcotest.test_case "semantics: control flow" `Quick test_semantics_flow;
    Alcotest.test_case "semantics: stack deltas" `Quick test_semantics_sp;
    Alcotest.test_case "semantics: uses/defs" `Quick test_semantics_uses_defs;
    QCheck_alcotest.to_alcotest prop_insn_roundtrip;
    QCheck_alcotest.to_alcotest prop_decode_total;
  ]

(* --- extended instruction subset --- *)

let test_extended_insns () =
  expect_same (I.Movzx (Reg.Rax, `B8, I.Reg Reg.Rcx));
  expect_same (I.Movzx (Reg.R9, `B16, I.Mem (I.mem ~base:Reg.Rbx ~disp:4 ())));
  expect_same (I.Movsx (Reg.Rdx, `B8, I.Reg Reg.Rdi));
  expect_same (I.Movsx (Reg.Rax, `B16, I.Reg Reg.R12));
  expect_same (I.Setcc (I.E, Reg.Rax));
  expect_same (I.Setcc (I.Ne, Reg.Rsi));
  expect_same (I.Setcc (I.G, Reg.R10));
  expect_same (I.Cmov (I.L, Reg.Rax, I.Reg Reg.Rbx));
  expect_same (I.Cmov (I.Ne, Reg.R8, I.Mem (I.mem ~base:Reg.Rdi ())));
  expect_same (I.Div (I.W64, Reg.Rcx));
  expect_same (I.Idiv (I.W64, Reg.Rbx));
  expect_same (I.Idiv (I.W32, Reg.Rsi));
  expect_same (I.Mul (I.W64, Reg.R11));
  expect_same I.Cqo;
  expect_same I.Cdq;
  expect_same (I.Not (I.W64, Reg.Rdx));
  expect_same (I.Xchg (Reg.Rax, Reg.Rbx));
  expect_same (I.Push_imm 5);
  expect_same (I.Push_imm 0x12345);
  expect_same (I.Test_imm (I.W64, Reg.Rdi, 0xff));
  expect_same (I.Test_imm (I.W32, Reg.Rax, 1))

let test_extended_semantics () =
  let open Semantics in
  check (Alcotest.option Alcotest.int) "push imm" (Some (-8))
    (sp_delta (I.Push_imm 3));
  check (Alcotest.option Alcotest.int) "xchg rsp unknown" None
    (sp_delta (I.Xchg (Reg.Rsp, Reg.Rax)));
  check Alcotest.bool "div defines rax+rdx" true
    (defs (I.Idiv (I.W64, Reg.Rcx)) = Reg.mask [ Reg.Rax; Reg.Rdx ]);
  check Alcotest.bool "div reads rax rdx r" true
    (List.sort compare (uses (I.Idiv (I.W64, Reg.Rcx)))
    = List.sort compare [ Reg.Rax; Reg.Rdx; Reg.Rcx ]);
  check Alcotest.bool "setcc partial write" true (defs (I.Setcc (I.E, Reg.Rax)) = 0);
  check Alcotest.bool "cmov reads dst" true
    (List.mem Reg.Rax (uses (I.Cmov (I.E, Reg.Rax, I.Reg Reg.Rbx))));
  check Alcotest.bool "cqo reads rax defines rdx" true
    (uses I.Cqo = [ Reg.Rax ] && defs I.Cqo = Reg.bit Reg.Rdx)

let suite =
  suite
  @ [
      Alcotest.test_case "extended instruction roundtrip" `Quick test_extended_insns;
      Alcotest.test_case "extended instruction semantics" `Quick test_extended_semantics;
    ]
