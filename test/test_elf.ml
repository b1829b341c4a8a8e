(* Tests for fetch.elf: image queries, encoder/decoder round trips. *)

open Fetch_elf

let check = Alcotest.check

let sample_image ?(symbols = []) () =
  let open Image in
  {
    entry = 0x401000;
    sections =
      [
        {
          sec_name = ".text";
          kind = Progbits;
          flags = shf_alloc lor shf_execinstr;
          addr = 0x401000;
          data = "\x55\x48\x89\xe5\xc3";
          addralign = 16;
          entsize = 0;
        };
        {
          sec_name = ".data";
          kind = Progbits;
          flags = shf_alloc lor shf_write;
          addr = 0x600000;
          data = "\x10\x10\x40\x00\x00\x00\x00\x00";
          addralign = 8;
          entsize = 0;
        };
        {
          sec_name = ".comment";
          kind = Progbits;
          flags = 0;
          addr = 0;
          data = "synthcc";
          addralign = 1;
          entsize = 0;
        };
      ];
    symbols;
  }

let fn_sym name value size =
  {
    Image.sym_name = name;
    value;
    size;
    sym_kind = Image.Func;
    bind = Image.Global;
    defined = true;
  }

let test_image_queries () =
  let img = sample_image () in
  check Alcotest.bool ".text found" true (Image.has_section img ".text");
  check Alcotest.bool ".absent" false (Image.has_section img ".bss");
  check Alcotest.int "one exec section" 1 (List.length (Image.exec_sections img));
  check Alcotest.bool "addr in exec" true (Image.in_exec_range img 0x401002);
  check Alcotest.bool "addr out of exec" false (Image.in_exec_range img 0x600000);
  (match Image.read img ~addr:0x401001 ~len:3 with
  | Some "\x48\x89\xe5" -> ()
  | _ -> Alcotest.fail "read mismatch");
  check (Alcotest.option Alcotest.int) "read_u64 in data" (Some 0x401010)
    (Image.read_u64 img 0x600000);
  check Alcotest.bool "read past end" true
    (Image.read img ~addr:0x401003 ~len:10 = None)

let test_roundtrip_plain () =
  let img = sample_image () in
  let raw = Encode.encode img in
  check Alcotest.string "magic" "\x7fELF" (String.sub raw 0 4);
  match Decode.decode raw with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok img' ->
      check Alcotest.int "entry" img.entry img'.entry;
      let t = Option.get (Image.section img' ".text") in
      check Alcotest.int ".text addr" 0x401000 t.addr;
      check Alcotest.string ".text data" "\x55\x48\x89\xe5\xc3" t.data;
      let d = Option.get (Image.section img' ".data") in
      check Alcotest.int ".data addr" 0x600000 d.addr;
      let c = Option.get (Image.section img' ".comment") in
      check Alcotest.string "non-alloc kept" "synthcc" c.data

let test_roundtrip_symbols () =
  let symbols =
    [ fn_sym "main" 0x401000 5; fn_sym "helper" 0x401003 2;
      { (fn_sym "local_fn" 0x401004 1) with bind = Image.Local } ]
  in
  let img = sample_image ~symbols () in
  let raw = Encode.encode img in
  match Decode.decode raw with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok img' ->
      check Alcotest.int "symbol count" 3 (List.length img'.symbols);
      let m = List.find (fun s -> s.Image.sym_name = "main") img'.symbols in
      check Alcotest.int "main value" 0x401000 m.value;
      check Alcotest.int "main size" 5 m.size;
      check Alcotest.bool "main is func" true (m.sym_kind = Image.Func);
      let l = List.find (fun s -> s.Image.sym_name = "local_fn") img'.symbols in
      check Alcotest.bool "local binding" true (l.bind = Image.Local)

let test_func_symbols_filter () =
  let symbols =
    [
      fn_sym "f" 0x401000 1;
      { (fn_sym "obj" 0x600000 8) with sym_kind = Image.Object };
      { (fn_sym "undef" 0 0) with defined = false };
    ]
  in
  let img = sample_image ~symbols () in
  check Alcotest.int "only defined funcs" 1
    (List.length (Image.func_symbols img))

let test_strip () =
  let img = sample_image ~symbols:[ fn_sym "f" 0x401000 1 ] () in
  let raw = Encode.encode img in
  let img' = Result.get_ok (Decode.decode raw) in
  let stripped = Image.strip img' in
  check Alcotest.int "no symbols" 0 (List.length stripped.symbols);
  (* re-encode the stripped image and decode again *)
  let raw2 = Encode.encode stripped in
  let img'' = Result.get_ok (Decode.decode raw2) in
  check Alcotest.int "still no symbols" 0 (List.length img''.symbols);
  check Alcotest.bool ".text survives" true (Image.has_section img'' ".text")

let test_decode_rejects_garbage () =
  check Alcotest.bool "short" true (Result.is_error (Decode.decode "\x7fELF"));
  check Alcotest.bool "bad magic" true
    (Result.is_error (Decode.decode (String.make 100 'A')));
  let img = sample_image () in
  let raw = Encode.encode img in
  (* corrupt the class byte *)
  let b = Bytes.of_string raw in
  Bytes.set b 4 '\001';
  check Alcotest.bool "elf32 rejected" true
    (Result.is_error (Decode.decode (Bytes.to_string b)))

let test_nobits () =
  let open Image in
  let img =
    {
      (sample_image ()) with
      sections =
        (sample_image ()).sections
        @ [
            {
              sec_name = ".bss";
              kind = Nobits 64;
              flags = shf_alloc lor shf_write;
              addr = 0x700000;
              data = "";
              addralign = 8;
              entsize = 0;
            };
          ];
    }
  in
  let raw = Encode.encode img in
  let img' = Result.get_ok (Decode.decode raw) in
  let bss = Option.get (Image.section img' ".bss") in
  check Alcotest.bool "bss is nobits, size preserved" true
    (bss.kind = Nobits 64);
  check Alcotest.int "bss has no contents" 0 (String.length bss.data)

let suite =
  [
    Alcotest.test_case "image queries" `Quick test_image_queries;
    Alcotest.test_case "encode/decode roundtrip" `Quick test_roundtrip_plain;
    Alcotest.test_case "symbol table roundtrip" `Quick test_roundtrip_symbols;
    Alcotest.test_case "func_symbols filters" `Quick test_func_symbols_filter;
    Alcotest.test_case "strip removes symtab" `Quick test_strip;
    Alcotest.test_case "decoder rejects garbage" `Quick test_decode_rejects_garbage;
    Alcotest.test_case "nobits sections" `Quick test_nobits;
  ]
