(* Tests for fetch.util: byte buffers/cursors, LEB128, the
   instruction-boundary table, PRNG. *)

open Fetch_util

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let test_buf_roundtrip () =
  let b = Byte_buf.create () in
  Byte_buf.u8 b 0xab;
  Byte_buf.u16 b 0x1234;
  Byte_buf.u32 b 0xdeadbeef;
  Byte_buf.u64 b 0x123456789abcdef;
  Byte_buf.i32 b (-5);
  let c = Byte_cursor.of_string (Byte_buf.contents b) in
  check Alcotest.int "u8" 0xab (Byte_cursor.u8 c);
  check Alcotest.int "u16" 0x1234 (Byte_cursor.u16 c);
  check Alcotest.int "u32" 0xdeadbeef (Byte_cursor.u32 c);
  check Alcotest.int "u64" 0x123456789abcdef (Byte_cursor.u64 c);
  check Alcotest.int "i32" (-5) (Byte_cursor.i32 c);
  check Alcotest.bool "eof" true (Byte_cursor.eof c)

let test_patch () =
  let b = Byte_buf.create () in
  Byte_buf.u32 b 0;
  Byte_buf.u32 b 42;
  Byte_buf.patch_u32 b ~at:0 99;
  let c = Byte_cursor.of_string (Byte_buf.contents b) in
  check Alcotest.int "patched" 99 (Byte_cursor.u32 c);
  check Alcotest.int "untouched" 42 (Byte_cursor.u32 c)

let test_cstring () =
  let b = Byte_buf.create () in
  Byte_buf.cstring b "hello";
  Byte_buf.cstring b "";
  Byte_buf.u8 b 7;
  let c = Byte_cursor.of_string (Byte_buf.contents b) in
  check Alcotest.string "first" "hello" (Byte_cursor.cstring c);
  check Alcotest.string "empty" "" (Byte_cursor.cstring c);
  check Alcotest.int "trailing" 7 (Byte_cursor.u8 c)

let test_out_of_bounds () =
  let c = Byte_cursor.of_string "ab" in
  ignore (Byte_cursor.u16 c);
  Alcotest.check_raises "u8 past end"
    (Byte_cursor.Out_of_bounds { pos = 2; want = 1; len = 2 })
    (fun () -> ignore (Byte_cursor.u8 c))

let prop_uleb =
  QCheck.Test.make ~name:"uleb128 roundtrip" ~count:500
    QCheck.(int_bound 0x3fffffff)
    (fun n ->
      let b = Byte_buf.create () in
      Byte_buf.uleb128 b n;
      Byte_cursor.uleb128 (Byte_cursor.of_string (Byte_buf.contents b)) = n)

let prop_sleb =
  QCheck.Test.make ~name:"sleb128 roundtrip" ~count:500
    QCheck.(int_range (-0x20000000) 0x20000000)
    (fun n ->
      let b = Byte_buf.create () in
      Byte_buf.sleb128 b n;
      Byte_cursor.sleb128 (Byte_cursor.of_string (Byte_buf.contents b)) = n)

let test_pad_align () =
  let b = Byte_buf.create () in
  Byte_buf.u8 b 1;
  Byte_buf.pad_to b ~align:8 ~byte:0;
  check Alcotest.int "aligned" 8 (Byte_buf.length b);
  Byte_buf.pad_to b ~align:8 ~byte:0;
  check Alcotest.int "idempotent" 8 (Byte_buf.length b)

(* Two sections with a gap between them. *)
let insn_ranges = [ (0x1000, 0x1100); (0x2000, 0x2a00) ]
let span_opt = Alcotest.(option (pair int int))

let test_insn_index_find () =
  let t = Insn_index.create insn_ranges in
  ignore (Insn_index.add t ~lo:0x1010 ~hi:0x1015);
  check span_opt "find at the start" (Some (0x1010, 0x1015)) (Insn_index.find t 0x1010);
  check span_opt "find mid-instruction" (Some (0x1010, 0x1015))
    (Insn_index.find t 0x1014);
  check span_opt "end is exclusive" None (Insn_index.find t 0x1015);
  List.iter
    (fun a ->
      check span_opt (Printf.sprintf "%#x is outside every section" a) None
        (Insn_index.find t a);
      check Alcotest.bool "not mem" false (Insn_index.mem t a))
    [ -1; 0; 0xfff; 0x1100; 0x1800; 0x2a00; max_int ];
  check Alcotest.bool "mem mid-instruction" true (Insn_index.mem t 0x1012);
  check Alcotest.int "cardinal" 1 (Insn_index.cardinal t)

let test_insn_index_next_from () =
  let t = Insn_index.create insn_ranges in
  ignore (Insn_index.add t ~lo:0x10f0 ~hi:0x10f3);
  ignore (Insn_index.add t ~lo:0x2900 ~hi:0x2902);
  check span_opt "from the table start" (Some (0x10f0, 0x10f3))
    (Insn_index.next_from t 0);
  check span_opt "from mid-instruction, across the section gap"
    (Some (0x2900, 0x2902)) (Insn_index.next_from t 0x10f1);
  check span_opt "from inside the gap" (Some (0x2900, 0x2902))
    (Insn_index.next_from t 0x1800);
  check span_opt "none past the last start" None (Insn_index.next_from t 0x2901);
  check Alcotest.(list (pair int int)) "to_list ascending"
    [ (0x10f0, 0x10f3); (0x2900, 0x2902) ]
    (Insn_index.to_list t)

let test_insn_index_first_writer () =
  let t = Insn_index.create insn_ranges in
  List.iter
    (fun (lo, hi) -> ignore (Insn_index.add t ~lo ~hi))
    [ (0x1000, 0x1004); (0x1002, 0x1008); (0x1004, 0x1008); (0x1003, 0x1004) ];
  check Alcotest.(list (pair int int)) "overlapping adds lose to the first writer"
    [ (0x1000, 0x1004); (0x1004, 0x1008) ]
    (Insn_index.to_list t);
  check Alcotest.int "cardinal counts kept adds" 2 (Insn_index.cardinal t)

(* [add]'s answer is what the engine commits by: true exactly for the
   instructions that reached the table. *)
let test_insn_index_add_result () =
  let t = Insn_index.create insn_ranges in
  check Alcotest.(list bool) "recorded, covered, recorded, covered"
    [ true; false; true; false ]
    (List.map
       (fun (lo, hi) -> Insn_index.add t ~lo ~hi)
       [ (0x2000, 0x2004); (0x2003, 0x2005); (0x2004, 0x2006); (0x2000, 0x2004) ]);
  check Alcotest.int "cardinal counts the recorded ones" 2 (Insn_index.cardinal t)

let test_insn_index_invalid () =
  let t = Insn_index.create insn_ranges in
  let outside t ~lo ~hi =
    Alcotest.check_raises
      (Printf.sprintf "[%#x, %#x) is outside" lo hi)
      (Invalid_argument "Insn_index.add: outside the table")
      (fun () -> ignore (Insn_index.add t ~lo ~hi))
  in
  outside t ~lo:0x1800 ~hi:0x1802;
  outside t ~lo:0x10fe ~hi:0x1102;
  outside t ~lo:0x0ffe ~hi:0x1002;
  outside (Insn_index.create []) ~lo:0 ~hi:1;
  Alcotest.check_raises "empty instruction"
    (Invalid_argument "Insn_index.add: bad length") (fun () ->
      ignore (Insn_index.add t ~lo:0x1000 ~hi:0x1000));
  Alcotest.check_raises "longer than max_len"
    (Invalid_argument "Insn_index.add: bad length") (fun () ->
      ignore (Insn_index.add t ~lo:0x2000 ~hi:(0x2001 + Insn_index.max_len)));
  check Alcotest.int "nothing recorded" 0 (Insn_index.cardinal t)

(* The reference semantics: a naive list of the recorded intervals, fed
   instructions first-writer-wins; true when the instruction was
   recorded.  [code] holds every instruction handed over, recorded or
   not. *)
let model_add m ~lo ~hi =
  (not (List.exists (fun (l, h) -> lo < h && l < hi) !m))
  && (m := (lo, hi) :: !m; true)

let model_find m a = List.find_opt (fun (lo, hi) -> lo <= a && a < hi) !m

let model_in_code code a = List.exists (fun (lo, hi) -> lo <= a && a < hi) code

let model_covered m ~lo ~hi =
  List.fold_left (fun n (l, h) -> n + max 0 (min h hi - max l lo)) 0 !m

let model_next_from m a =
  match List.sort compare (List.filter (fun (lo, _) -> lo >= a) !m) with
  | [] -> None
  | first :: _ -> Some first

(* Small ranges so random instructions overlap, straddle section ends and
   land in the gap. *)
let qc_ranges = [ (0, 600); (700, 1300); (1300, 1400) ]
let in_qc_ranges lo hi = lo >= 0 && ((hi <= 600) || (lo >= 700 && hi <= 1400))

let prop_insn_index_model =
  QCheck.Test.make ~name:"insn index agrees with the interval-list model" ~count:300
    QCheck.(list (pair (int_bound 1410) (int_range 1 15)))
    (fun inserts ->
      let t = Insn_index.create qc_ranges and m = ref [] and code = ref [] in
      List.iter
        (fun (lo, len) ->
          let hi = lo + len in
          if in_qc_ranges lo hi then begin
            code := (lo, hi) :: !code;
            if Insn_index.add t ~lo ~hi <> model_add m ~lo ~hi then
              QCheck.Test.fail_reportf "add [%d, %d) disagrees with the model" lo hi
          end
          else
            match Insn_index.add t ~lo ~hi with
            | _ -> QCheck.Test.fail_reportf "accepted [%d, %d)" lo hi
            | exception Invalid_argument _ -> ())
        inserts;
      Insn_index.to_list t = List.sort compare !m
      && Insn_index.cardinal t = List.length !m
      && Insn_index.covered t ~lo:min_int ~hi:max_int
         = model_covered m ~lo:min_int ~hi:max_int
      && List.for_all
           (fun a ->
             Insn_index.find t a = model_find m a
             && Insn_index.next_from t a = model_next_from m a
             && Insn_index.in_code t a = model_in_code !code a
             && (a mod 11 <> 0
                || List.for_all
                     (fun w ->
                       Insn_index.covered t ~lo:a ~hi:(a + w)
                       = model_covered m ~lo:a ~hi:(a + w))
                     [ -3; 0; 1; 9; 160; 1500 ]))
           (List.init 1420 (fun a -> a - 5)))

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds";
    let r = Prng.range rng 5 9 in
    if r < 5 || r > 9 then Alcotest.fail "range out of bounds"
  done

let test_prng_weighted () =
  let rng = Prng.create 11 in
  let a = ref 0 in
  for _ = 1 to 1000 do
    match Prng.weighted rng [ (9.0, `A); (1.0, `B) ] with
    | `A -> incr a
    | `B -> ()
  done;
  if !a < 800 || !a > 980 then
    Alcotest.failf "weighted choice skewed: %d/1000" !a

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_text_table () =
  let s =
    Text_table.render ~header:[ "name"; "n" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  check Alcotest.bool "contains rule" true (String.contains s '-');
  check Alcotest.bool "mentions bb" true (contains_sub s "bb");
  check Alcotest.bool "right-aligns numbers" true (contains_sub s " 1");
  check Alcotest.string "pct" "50.00" (Text_table.pct 1 2);
  check Alcotest.string "thousands" "1.50" (Text_table.thousands 1500)

let test_json_parse () =
  let ok text =
    match Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.failf "%S should parse: %s" text e
  in
  let fails text =
    match Json.parse text with
    | Ok _ -> Alcotest.failf "%S should not parse" text
    | Error _ -> ()
  in
  check Alcotest.bool "null" true (ok "null" = Json.Null);
  check Alcotest.bool "bools" true
    (ok "true" = Json.Bool true && ok " false " = Json.Bool false);
  check Alcotest.bool "numbers" true
    (Json.to_int (ok "42") = Some 42
    && Json.to_int (ok "-7") = Some (-7)
    && Json.to_float (ok "2.5") = Some 2.5
    && Json.to_float (ok "1e3") = Some 1000.0);
  check Alcotest.bool "non-integral to_int is None" true
    (Json.to_int (ok "2.5") = None);
  check Alcotest.bool "strings with escapes" true
    (Json.to_str (ok "\"a\\\"b\\n\\u0041\"") = Some "a\"b\nA");
  check Alcotest.bool "arrays" true
    (match Json.to_list (ok "[1, 2, 3]") with
    | Some l -> List.filter_map Json.to_int l = [ 1; 2; 3 ]
    | None -> false);
  let obj = ok "{\"a\": 1, \"b\": {\"c\": [true]}}" in
  check Alcotest.bool "nested member access" true
    (Option.bind (Json.member "b" obj) (Json.member "c") <> None);
  check Alcotest.bool "missing member is None" true (Json.member "z" obj = None);
  List.iter fails
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ];
  (* escape/parse roundtrip *)
  let s = "quote \" backslash \\ newline \n tab \t nul \x00 high \x1f" in
  check Alcotest.bool "escape roundtrips" true
    (Json.to_str (ok (Json.escape s)) = Some s)

(* ---- base64 (the serve protocol's inline-bytes carrier) ---- *)

let test_b64_vectors () =
  (* RFC 4648 §10 test vectors, both directions *)
  let vectors =
    [
      ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v");
      ("foob", "Zm9vYg=="); ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy");
    ]
  in
  List.iter
    (fun (plain, enc) ->
      check Alcotest.string "encode" enc (B64.encode plain);
      check Alcotest.bool "decode" true (B64.decode enc = Ok plain))
    vectors

let test_b64_rejects () =
  let rejected s = match B64.decode s with Error _ -> true | Ok _ -> false in
  List.iter
    (fun s -> check Alcotest.bool (Printf.sprintf "rejects %S" s) true (rejected s))
    [
      "Zg";  (* missing padding *)
      "Zg=";  (* short padding *)
      "Zg===";  (* over-padded *)
      "Z===";  (* padding can't start at position 1 *)
      "Zm9v Yg==";  (* whitespace *)
      "Zm9v\n";  (* trailing newline *)
      "Zh==";  (* non-canonical: dropped bits not zero *)
      "Zm9vYg==Zg==";  (* data after padding *)
      "Zm9*";  (* non-alphabet byte *)
    ]

let prop_b64_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip" ~count:500
    QCheck.(string_gen_of_size Gen.(int_bound 200) Gen.char)
    (fun s -> B64.decode (B64.encode s) = Ok s)

let suite =
  [
    Alcotest.test_case "byte buf/cursor roundtrip" `Quick test_buf_roundtrip;
    Alcotest.test_case "base64 rfc vectors" `Quick test_b64_vectors;
    Alcotest.test_case "base64 strictness" `Quick test_b64_rejects;
    Alcotest.test_case "json parser" `Quick test_json_parse;
    Alcotest.test_case "byte buf patching" `Quick test_patch;
    Alcotest.test_case "cstring roundtrip" `Quick test_cstring;
    Alcotest.test_case "cursor bounds checking" `Quick test_out_of_bounds;
    Alcotest.test_case "pad_to alignment" `Quick test_pad_align;
    Alcotest.test_case "insn index find" `Quick test_insn_index_find;
    Alcotest.test_case "insn index next_from" `Quick test_insn_index_next_from;
    Alcotest.test_case "insn index first writer wins" `Quick
      test_insn_index_first_writer;
    Alcotest.test_case "insn index rejects bad adds" `Quick test_insn_index_invalid;
    qcheck prop_insn_index_model;
    Alcotest.test_case "insn index add reports what it recorded" `Quick
      test_insn_index_add_result;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng weighted" `Quick test_prng_weighted;
    Alcotest.test_case "text table render" `Quick test_text_table;
    qcheck prop_b64_roundtrip;
    qcheck prop_uleb;
    qcheck prop_sleb;
  ]
