(* Tests for the serve daemon: wire-protocol parsing and rendering, the
   content-addressed LRU cache, the ordered request engine
   (cold/warm byte-identity, shedding, deadlines, failure isolation),
   the bounded line reader, and a socket round trip with cache reuse
   across connections. *)

module Json = Fetch_util.Json
module B64 = Fetch_util.B64
module Cache = Fetch_serve.Cache
module Engine = Fetch_serve.Engine
module Serve = Fetch_serve.Serve
module P = Fetch_serve.Protocol

let check = Alcotest.check

let profile =
  Fetch_synth.Profile.make Fetch_synth.Profile.Synthgcc Fetch_synth.Profile.O2

let binary ?(n_funcs = 12) seed =
  (Fetch_synth.Link.build_random ~profile ~seed
     { Fetch_synth.Gen.default_spec with n_funcs })
    .raw

let analyze_line ?id ?deadline_ms ?want bytes =
  let field k v = Printf.sprintf "%s:%s" (Json.escape k) v in
  let fields =
    (match id with None -> [] | Some id -> [ field "id" id ])
    @ [ field "bytes_b64" (Json.escape (B64.encode bytes)) ]
    @ (match deadline_ms with
      | None -> []
      | Some ms -> [ field "deadline_ms" (string_of_int ms) ])
    @
    match want with
    | None -> []
    | Some atoms ->
        [
          field "want"
            (Printf.sprintf "[%s]"
               (String.concat "," (List.map Json.escape atoms)));
        ]
  in
  Printf.sprintf "{%s}" (String.concat "," fields)

let with_engine ?config f =
  let e = Engine.create ?config () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e)

let small_config =
  { Engine.default_config with domains = 2; cache_bytes = 4 * 1024 * 1024 }

let response_field line k =
  match Json.parse line with
  | Ok j -> Json.member k j
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e

let status line =
  match Option.bind (response_field line "status") Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "response without status: %s" line

let error_code line =
  Option.bind (response_field line "code") Json.to_str

(* ---- protocol ---- *)

let test_protocol_parse () =
  let ok line =
    match P.parse_request line with
    | Ok r -> r
    | Error (_, msg) -> Alcotest.failf "expected %s to parse: %s" line msg
  in
  let err line =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "expected %s to be rejected" line
    | Error e -> e
  in
  (match (ok {|{"bytes_b64":"Zm9v"}|}).op with
  | P.Analyze { source = `Bytes "foo"; deadline_ms = None; want } ->
      check Alcotest.bool "default want is everything" true (want = P.want_all)
  | _ -> Alcotest.fail "inline bytes analyze");
  (match (ok {|{"op":"analyze","path":"/x","deadline_ms":250,"want":["starts"]}|}).op with
  | P.Analyze { source = `Path "/x"; deadline_ms = Some 250; want } ->
      check Alcotest.bool "want narrows" true
        (want.w_starts && not want.w_eh && not want.w_diags && not want.w_findings)
  | _ -> Alcotest.fail "path analyze");
  (match ok {|{"op":"stats","id":7}|} with
  | { id = Some (Json.Num 7.); op = P.Stats } -> ()
  | _ -> Alcotest.fail "stats with id");
  (* the id survives validation failures so the error can echo it *)
  (match err {|{"id":"r1","path":"/x","bytes_b64":"Zm9v"}|} with
  | Some (Json.Str "r1"), _ -> ()
  | _ -> Alcotest.fail "id recovered from invalid request");
  List.iter
    (fun line ->
      match P.parse_request line with
      | Ok _ -> Alcotest.failf "should reject %s" line
      | Error _ -> ())
    [
      "";  (* not JSON *)
      "[]";  (* not an object *)
      {|{"op":"frobnicate","path":"/x"}|};
      {|{"path":"/x","unknown_field":1}|};
      {|{}|};  (* no source *)
      {|{"bytes_b64":"!!"}|};  (* bad base64 *)
      {|{"path":"/x","deadline_ms":-1}|};
      {|{"path":"/x","deadline_ms":1.5}|};
      {|{"path":"/x","want":["starts","bogus"]}|};
      {|{"path":12}|};
    ]

let test_protocol_render () =
  let payload =
    {|{"starts":[1,2],"n_seeds":2,"eh_frame":{"records_ok":2,"records_skipped":0,"indirect_derefs":0},"diags":[],"findings":[]}|}
  in
  check Alcotest.string "full response"
    ({|{"id":"a","status":"ok",|}
    ^ {|"starts":[1,2],"n_seeds":2,"eh_frame":{"records_ok":2,"records_skipped":0,"indirect_derefs":0},"diags":[],"findings":[]}|}
    )
    (P.ok_response ~id:(Some (Json.Str "a")) ~want:P.want_all payload);
  check Alcotest.string "want filters field groups"
    {|{"status":"ok","diags":[]}|}
    (P.ok_response ~id:None
       ~want:{ P.w_starts = false; w_eh = false; w_diags = true; w_findings = false }
       payload);
  check Alcotest.string "error response"
    {|{"id":3,"status":"error","code":"overloaded","message":"queue full"}|}
    (P.error_response ~id:(Some (Json.Num 3.)) ~code:P.Overloaded
       ~message:"queue full")

(* ---- cache ---- *)

let test_cache_lru () =
  let c = Cache.create ~max_bytes:100 in
  check Alcotest.bool "miss on empty" true (Cache.find c "k1" = None);
  Cache.add c "k1" (String.make 40 'a');
  Cache.add c "k2" (String.make 40 'b');
  check Alcotest.bool "hit" true (Cache.find c "k1" <> None);
  (* k1 was just touched, so inserting past the budget evicts k2 *)
  Cache.add c "k3" (String.make 40 'c');
  check Alcotest.bool "lru (k2) evicted" true (Cache.find c "k2" = None);
  check Alcotest.bool "recently-used k1 kept" true (Cache.find c "k1" <> None);
  check Alcotest.bool "new k3 present" true (Cache.find c "k3" <> None);
  (* replacement charges the new size, not the sum *)
  Cache.add c "k3" (String.make 10 'd');
  let s = Cache.stats c in
  check Alcotest.int "bytes after replace" 50 s.bytes;
  check Alcotest.int "evictions counted" 1 s.evictions;
  (* an entry larger than the whole budget is refused outright *)
  Cache.add c "huge" (String.make 101 'x');
  check Alcotest.bool "oversize entry not stored" true (Cache.find c "huge" = None);
  check Alcotest.int "oversize rejection counted" 1
    (Cache.stats c).rejected_oversize

(* ---- engine: cold/warm byte identity ---- *)

let test_engine_warm_hit () =
  let raw = binary 42 in
  with_engine
    ~config:{ small_config with capture_reports = true }
    (fun e ->
      Engine.submit_line e (analyze_line ~id:"\"c\"" raw);
      let cold =
        match Engine.flush e with
        | [ r ] -> r
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
      in
      check Alcotest.string "cold status" "ok" (status cold);
      check Alcotest.int "cold run captured a pipeline report" 1
        (List.length (Engine.reports e));
      Engine.submit_line e (analyze_line ~id:"\"c\"" raw);
      let warm =
        match Engine.flush e with [ r ] -> r | _ -> Alcotest.fail "1 response"
      in
      check Alcotest.string "warm response is byte-identical" cold warm;
      (* the warm path never ran the pipeline: no new trace report *)
      check Alcotest.int "no pipeline report for the cache hit" 1
        (List.length (Engine.reports e));
      let stats =
        match Json.parse (Engine.stats_json e) with
        | Ok j -> j
        | Error e -> Alcotest.failf "stats parse: %s" e
      in
      let cache_int k =
        Option.bind (Json.member "cache" stats) (Json.member k)
        |> Fun.flip Option.bind Json.to_int
      in
      check (Alcotest.option Alcotest.int) "one cache hit" (Some 1)
        (cache_int "hits");
      check (Alcotest.option Alcotest.int) "one cache miss" (Some 1)
        (cache_int "misses"))

(* a re-linked binary: different bytes, identical .eh_frame *)
let test_engine_relinked_cold () =
  let raw1 = binary 43 in
  let img =
    match Fetch_elf.Decode.decode raw1 with
    | Ok i -> i
    | Error e -> Alcotest.failf "decode: %s" e
  in
  let relinked =
    {
      img with
      Fetch_elf.Image.sections =
        img.Fetch_elf.Image.sections
        @ [
            {
              Fetch_elf.Image.sec_name = ".note.relink";
              kind = Fetch_elf.Image.Progbits;
              flags = 0;
              addr = 0;
              data = "relinked-v2";
              addralign = 1;
              entsize = 0;
            };
          ];
    }
  in
  let raw2 = Fetch_elf.Encode.encode relinked in
  check Alcotest.bool "variant differs as a whole binary" true (raw1 <> raw2);
  with_engine ~config:small_config (fun e ->
      Engine.submit_line e (analyze_line ~id:"1" raw1);
      let original =
        match Engine.flush e with [ r ] -> r | _ -> Alcotest.fail "1 response"
      in
      Engine.submit_line e (analyze_line ~id:"2" raw2);
      let relinked =
        match Engine.flush e with [ r ] -> r | _ -> Alcotest.fail "1 response"
      in
      check Alcotest.string "re-linked binary analyzes ok" "ok" (status relinked);
      let starts r =
        match response_field r "starts" with
        | Some j -> Json.to_string j
        | None -> Alcotest.failf "response without starts: %s" r
      in
      check Alcotest.string "same starts as the original" (starts original)
        (starts relinked);
      let s = Engine.stats_json e in
      let j = match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "%s" e in
      let cache_int k =
        Option.bind (Json.member "cache" j) (Json.member k)
        |> Fun.flip Option.bind Json.to_int
      in
      check (Alcotest.option Alcotest.int)
        "both analyzed cold (different binaries)" (Some 2)
        (cache_int "misses");
      check (Alcotest.option Alcotest.int) "no hits" (Some 0)
        (cache_int "hits"))

(* ---- engine: shedding and deadlines ---- *)

let test_engine_shed () =
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let opened = ref false in
  let gate () =
    Mutex.lock mu;
    while not !opened do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  let raw = binary 44 in
  with_engine
    ~config:
      { small_config with queue_bound = 2; domains = 2; worker_gate = Some gate }
    (fun e ->
      List.iter
        (fun id -> Engine.submit_line e (analyze_line ~id:(string_of_int id) raw))
        [ 1; 2; 3; 4 ];
      (* workers are parked on the gate: 1 and 2 are in flight, 3 and 4
         arrive at a full queue and must shed immediately *)
      let shed = Engine.poll_responses e in
      check (Alcotest.list Alcotest.string) "nothing emitted before slot 1" []
        shed;
      Mutex.lock mu;
      opened := true;
      Condition.broadcast cv;
      Mutex.unlock mu;
      let all = Engine.flush e in
      check Alcotest.int "four responses" 4 (List.length all);
      let ids =
        List.map
          (fun r ->
            match Option.bind (response_field r "id") Json.to_int with
            | Some i -> i
            | None -> -1)
          all
      in
      check (Alcotest.list Alcotest.int) "request order preserved" [ 1; 2; 3; 4 ]
        ids;
      check
        (Alcotest.list Alcotest.string)
        "first two analyzed, rest shed as overloaded"
        [ "ok"; "ok"; "error"; "error" ]
        (List.map status all);
      check
        (Alcotest.list (Alcotest.option Alcotest.string))
        "shed responses carry the overloaded code"
        [ None; None; Some "overloaded"; Some "overloaded" ]
        (List.map error_code all))

let test_engine_deadline () =
  let raw = binary 45 in
  with_engine ~config:small_config (fun e ->
      Engine.submit_line e (analyze_line ~id:"1" ~deadline_ms:0 raw);
      (* an already-expired deadline cancels without poisoning the pool:
         the follow-up request on the same engine still analyzes *)
      Engine.submit_line e (analyze_line ~id:"2" raw);
      match Engine.flush e with
      | [ dead; alive ] ->
          check Alcotest.string "expired request errors" "error" (status dead);
          check
            (Alcotest.option Alcotest.string)
            "with the deadline_exceeded code" (Some "deadline_exceeded")
            (error_code dead);
          check Alcotest.string "next request unaffected" "ok" (status alive)
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

(* ---- engine: failure isolation and malformed input ---- *)

let test_engine_isolation () =
  let raw = binary 46 in
  with_engine ~config:small_config (fun e ->
      Engine.submit_line e "this is not json";
      Engine.submit_line e (analyze_line ~id:"1" "not an elf binary");
      Engine.submit_line e {|{"id":2,"path":"/nonexistent/fetch-serve-test"}|};
      Engine.submit_line e (analyze_line ~id:"3" raw);
      Engine.submit_bad e "line too long";
      match Engine.flush e with
      | [ bad; junk; missing; ok; oversized ] ->
          check
            (Alcotest.option Alcotest.string)
            "malformed line -> bad_request" (Some "bad_request")
            (error_code bad);
          check
            (Alcotest.option Alcotest.string)
            "non-ELF bytes -> analysis_failed" (Some "analysis_failed")
            (error_code junk);
          check
            (Alcotest.option Alcotest.string)
            "unreadable path -> analysis_failed" (Some "analysis_failed")
            (error_code missing);
          check Alcotest.string "healthy request still analyzes" "ok" (status ok);
          check
            (Alcotest.option Alcotest.string)
            "oversized line -> bad_request" (Some "bad_request")
            (error_code oversized)
      | rs -> Alcotest.failf "expected 5 responses, got %d" (List.length rs))

let test_engine_want_and_stats () =
  let raw = binary 47 in
  with_engine ~config:small_config (fun e ->
      Engine.submit_line e (analyze_line ~id:"1" ~want:[ "starts" ] raw);
      Engine.submit_line e {|{"op":"stats","id":2}|};
      match Engine.flush e with
      | [ narrow; stats ] ->
          check Alcotest.bool "want=starts keeps starts" true
            (response_field narrow "starts" <> None);
          check Alcotest.bool "want=starts drops eh_frame and findings" true
            (response_field narrow "eh_frame" = None
            && response_field narrow "findings" = None
            && response_field narrow "diags" = None);
          check Alcotest.string "stats request answers in-band" "ok"
            (status stats);
          let requests =
            Option.bind (response_field stats "stats") (Json.member "requests")
            |> Fun.flip Option.bind Json.to_int
          in
          check (Alcotest.option Alcotest.int)
            "stats snapshot counts both requests" (Some 2) requests
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

(* ---- engine: hostile section headers ---- *)

(* A synth binary whose first PROGBITS section header is rewritten to
   NOBITS with a declared size of 2^40: the file is unchanged in length,
   but a decoder that sized a buffer by [sh_size] would ask for 1 TiB. *)
let huge_nobits_fixture () =
  let raw = Bytes.of_string (binary 41) in
  let shoff = Int64.to_int (Bytes.get_int64_le raw 0x28) in
  let shnum = Bytes.get_uint16_le raw 0x3c in
  let rec patch i =
    if i >= shnum then Alcotest.fail "fixture: no PROGBITS section"
    else
      let sh = shoff + (i * 64) in
      if Bytes.get_int32_le raw (sh + 4) = 1l then begin
        Bytes.set_int32_le raw (sh + 4) 8l;
        Bytes.set_int64_le raw (sh + 32) (Int64.shift_left 1L 40)
      end
      else patch (i + 1)
  in
  patch 1;
  Bytes.to_string raw

let test_engine_huge_nobits () =
  let raw = huge_nobits_fixture () in
  (* a minor collection on each side brings the allocation counters up
     to date (OCaml 5 folds minor-heap words in only when it runs) *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let decoded = Fetch_elf.Decode.decode raw in
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  (match decoded with
  | Ok img ->
      check Alcotest.bool "the declared size stays observable" true
        (List.exists
           (fun (s : Fetch_elf.Image.section) ->
             s.kind = Fetch_elf.Image.Nobits (1 lsl 40))
           img.sections)
  | Error e -> Alcotest.failf "fixture should decode: %s" e);
  let bound = 8 * String.length raw in
  if allocated > float_of_int bound then
    Alcotest.failf "decode allocated %.0f bytes for a %d-byte input (bound %d)"
      allocated (String.length raw) bound;
  (* the daemon decodes on its dispatch thread: the fixture must not take
     down the engine, so the request after it is still answered *)
  with_engine ~config:small_config (fun e ->
      Engine.submit_line e (analyze_line ~id:"1" raw);
      Engine.submit_line e (analyze_line ~id:"2" (binary 42));
      match Engine.flush e with
      | [ hostile; ok ] ->
          check Alcotest.bool "the fixture is answered" true
            (List.mem (status hostile) [ "ok"; "error" ]);
          check Alcotest.string "the next request analyzes" "ok" (status ok)
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

(* ---- engine: accounting laws ---- *)

(* Each request kind of the property below: analyze one of three
   binaries (with repeats), analyze non-ELF bytes, an already-expired
   deadline, a malformed line, the IO layer's oversized-line path, a
   missing path and an in-band stats request. *)
type mix_op =
  | Analyze of int
  | Not_elf
  | Expired of int
  | Malformed
  | Oversized
  | Missing_path
  | Stats

let mix_op_of_int n =
  match n mod 9 with
  | 0 | 1 | 2 -> Analyze (n mod 3)
  | 3 -> Not_elf
  | 4 -> Expired (n mod 3)
  | 5 -> Malformed
  | 6 -> Oversized
  | 7 -> Missing_path
  | _ -> Stats

let mix_binaries = lazy (Array.init 3 (fun i -> binary ~n_funcs:6 (300 + i)))

(* Does the engine read bytes (and so consult the cache) for this op? *)
let reads_bytes = function
  | Analyze _ | Not_elf | Expired _ -> true
  | Malformed | Oversized | Missing_path | Stats -> false

let prop_serve_accounting =
  QCheck.Test.make ~name:"serve: requests = Σ outcomes, lookups = reads"
    ~count:12
    QCheck.(list_of_size Gen.(int_range 1 14) (int_bound 1000))
    (fun ns ->
      let ops = List.map mix_op_of_int ns in
      let bins = Lazy.force mix_binaries in
      let config = { small_config with domains = 1; queue_bound = 2 } in
      with_engine ~config (fun e ->
          List.iteri
            (fun i op ->
              let id = string_of_int i in
              match op with
              | Analyze b -> Engine.submit_line e (analyze_line ~id bins.(b))
              | Not_elf -> Engine.submit_line e (analyze_line ~id "not an elf")
              | Expired b ->
                  Engine.submit_line e
                    (analyze_line ~id ~deadline_ms:0 bins.(b))
              | Malformed -> Engine.submit_line e "{not json"
              | Oversized -> Engine.submit_bad e "line too long"
              | Missing_path ->
                  Engine.submit_line e
                    {|{"path":"/nonexistent/fetch-serve-accounting"}|}
              | Stats -> Engine.submit_line e {|{"op":"stats"}|})
            ops;
          let responses = Engine.flush e in
          let stats =
            match Json.parse (Engine.stats_json e) with
            | Ok j -> j
            | Error msg -> Alcotest.failf "stats JSON: %s" msg
          in
          let int_at path =
            match
              List.fold_left
                (fun j k -> Option.bind j (Json.member k))
                (Some stats) path
              |> Fun.flip Option.bind Json.to_int
            with
            | Some n -> n
            | None -> Alcotest.failf "stats lacks %s" (String.concat "." path)
          in
          let outcomes =
            List.fold_left
              (fun acc k -> acc + int_at [ k ])
              0
              [
                "ok";
                "bad_request";
                "overloaded";
                "deadline_exceeded";
                "analysis_failed";
                "stats_requests";
              ]
          in
          let reads = List.length (List.filter reads_bytes ops) in
          List.length responses = List.length ops
          && int_at [ "requests" ] = List.length ops
          && int_at [ "requests" ] = outcomes
          && int_at [ "queue"; "in_flight" ] = 0
          && int_at [ "cache"; "hits" ] + int_at [ "cache"; "misses" ] = reads))

(* cached responses are byte-identical to a fresh engine's analysis of
   the same bytes — over random binaries *)
let prop_warm_equals_fresh =
  QCheck.Test.make ~name:"serve: warm == cold == fresh-engine response"
    ~count:4
    QCheck.(int_bound 1000)
    (fun seed ->
      let raw = binary ~n_funcs:8 (1000 + seed) in
      let one_engine () =
        with_engine
          ~config:{ small_config with domains = 1 }
          (fun e ->
            Engine.submit_line e (analyze_line ~id:"9" raw);
            let cold = Engine.flush e in
            Engine.submit_line e (analyze_line ~id:"9" raw);
            (cold, Engine.flush e))
      in
      let cold, warm = one_engine () in
      let fresh, _ = one_engine () in
      cold = warm && cold = fresh)

(* ---- bounded line reader ---- *)

let with_pipe f =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rd with Unix.Unix_error _ -> ());
      try Unix.close wr with Unix.Unix_error _ -> ())
    (fun () -> f rd wr)

let feed wr s = ignore (Unix.write_substring wr s 0 (String.length s))

let test_line_reader () =
  with_pipe (fun rd wr ->
      let r = Serve.Line_reader.create ~max_line_bytes:10 rd in
      feed wr "one\ntwo";
      check Alcotest.bool "first step: complete line only" true
        (Serve.Line_reader.step r = [ `Line "one" ]);
      feed wr "-more\n";
      check Alcotest.bool "split line reassembled" true
        (Serve.Line_reader.step r = [ `Line "two-more" ]);
      (* a line over the bound is discarded to its newline and flagged *)
      feed wr (String.make 25 'x');
      check Alcotest.bool "over-bound prefix discarded silently" true
        (Serve.Line_reader.step r = []);
      feed wr "yyy\nok\n";
      check Alcotest.bool "oversized flagged once, then stream resumes" true
        (Serve.Line_reader.step r = [ `Oversized; `Line "ok" ]);
      (* unterminated tail is delivered at EOF *)
      feed wr "tail";
      check Alcotest.bool "tail buffered" true (Serve.Line_reader.step r = []);
      Unix.close wr;
      check Alcotest.bool "eof flushes the tail" true
        (Serve.Line_reader.step r = [ `Line "tail"; `Eof ]);
      check Alcotest.bool "eof is sticky" true
        (Serve.Line_reader.step r = [ `Eof ]))

(* ---- socket round trip: the cache outlives connections ---- *)

let test_socket_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fetch-serve-test-%d.sock" (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serve.run_socket
          ~config:
            {
              Serve.default_config with
              engine = { small_config with domains = 1 };
            }
          ~should_stop:(fun () -> Atomic.get stop)
          path)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () ->
      let rec wait_for_socket tries =
        if Sys.file_exists path then ()
        else if tries = 0 then Alcotest.fail "socket never appeared"
        else begin
          Unix.sleepf 0.05;
          wait_for_socket (tries - 1)
        end
      in
      wait_for_socket 100;
      let raw = binary 48 in
      let round () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX path);
            feed fd (analyze_line ~id:"1" raw ^ "\n");
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            let buf = Buffer.create 4096 in
            let chunk = Bytes.create 4096 in
            let rec drain () =
              let n = Unix.read fd chunk 0 (Bytes.length chunk) in
              if n > 0 then begin
                Buffer.add_subbytes buf chunk 0 n;
                drain ()
              end
            in
            drain ();
            Buffer.contents buf)
      in
      let cold = round () in
      let warm = round () in
      check Alcotest.bool "socket response is a full ok line" true
        (String.length cold > 0
        && cold.[String.length cold - 1] = '\n'
        && status (String.trim cold) = "ok");
      check Alcotest.string
        "second connection served byte-identically from the cache" cold warm)

let suite =
  [
    Alcotest.test_case "protocol: request parsing" `Quick test_protocol_parse;
    Alcotest.test_case "protocol: response rendering" `Quick test_protocol_render;
    Alcotest.test_case "cache: LRU byte budget" `Quick test_cache_lru;
    Alcotest.test_case "engine: warm hit is byte-identical" `Quick
      test_engine_warm_hit;
    Alcotest.test_case "engine: re-linked binary is analyzed cold" `Quick
      test_engine_relinked_cold;
    Alcotest.test_case "engine: queue overflow sheds as overloaded" `Quick
      test_engine_shed;
    Alcotest.test_case "engine: deadlines cancel cleanly" `Quick
      test_engine_deadline;
    Alcotest.test_case "engine: per-request failure isolation" `Quick
      test_engine_isolation;
    Alcotest.test_case "engine: want filtering and in-band stats" `Quick
      test_engine_want_and_stats;
    Alcotest.test_case "engine: a huge NOBITS section costs no memory" `Quick
      test_engine_huge_nobits;
    QCheck_alcotest.to_alcotest prop_serve_accounting;
    QCheck_alcotest.to_alcotest prop_warm_equals_fresh;
    Alcotest.test_case "line reader: bounds and reassembly" `Quick
      test_line_reader;
    Alcotest.test_case "socket: cache persists across connections" `Quick
      test_socket_roundtrip;
  ]
