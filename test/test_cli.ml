(* CLI-level tests for `fetch lint`: exit-code gating
   (--fail-on) and JSONL output shape.  Runs the real executable
   (argv.(1), wired up by the dune rule) against binaries synthesized
   in-process, so the checks cover argument parsing, serialization and
   the process exit path that the unit tests bypass.

   The exit-code checks are self-consistent — the expected code is
   recomputed from the findings the same invocation printed — plus one
   binary built with broken FDEs so the warning gate is exercised
   non-vacuously. *)

module Json = Fetch_util.Json

let fetch =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: test_cli FETCH_EXE";
    exit 2
  end
  else Sys.argv.(1)

let failures = ref 0

let check name cond =
  if cond then Printf.printf "ok   %s\n" name
  else begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save (built : Fetch_synth.Link.built) =
  let path = Filename.temp_file "fetch_cli" ".elf" in
  let oc = open_out_bin path in
  output_string oc built.raw;
  close_out oc;
  path

let profile =
  Fetch_synth.Profile.make Fetch_synth.Profile.Synthgcc Fetch_synth.Profile.O2

let write_binary ~seed spec = save (Fetch_synth.Link.build_random ~profile ~seed spec)

(* A binary guaranteed to lint with a Warning: an unreferenced function
   behind a hand-broken FDE.  The FDE start points into the
   callconv-violating pre-entry bytes, so the seed is rejected; nothing
   else references the function, so its whole range stays undecoded —
   `fde-unreached` at Warning severity. *)
let write_warning_binary ~seed =
  let rng = Fetch_util.Prng.create seed in
  let prog =
    Fetch_synth.Gen.program rng profile
      { Fetch_synth.Gen.default_spec with n_funcs = 15 }
  in
  let orphan =
    Fetch_synth.Ir.make_func ~name:"orphan" ~params:1 ~is_assembly:true
      ~emit_fde:true ~broken_fde:true ~align:16 ~endbr:false
      [ Fetch_synth.Ir.Compute 3; Fetch_synth.Ir.Return ]
  in
  let prog =
    { prog with Fetch_synth.Ir.funcs = prog.Fetch_synth.Ir.funcs @ [ orphan ] }
  in
  save (Fetch_synth.Link.build ~profile ~rng prog)

(* stderr is dropped: --stats prints the report to stdout and the lint
   command only uses stderr for hard errors, which the exit code already
   surfaces. *)
let run args =
  let out = Filename.temp_file "fetch_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote fetch) args
         (Filename.quote out))
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> l <> "")

(* ---- JSONL shape: every line is one finding object ---- *)

type counts = { errors : int; warnings : int; infos : int }

let check_jsonl path =
  let code, text = run (Printf.sprintf "lint %s --json --fail-on never" path) in
  check "lint: --fail-on never exits 0" (code = 0);
  let counts = ref { errors = 0; warnings = 0; infos = 0 } in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e ->
          check (Printf.sprintf "lint: JSONL line parses (%s)" e) false
      | Ok j ->
          let str k = Option.bind (Json.member k j) Json.to_str in
          let int k = Option.bind (Json.member k j) Json.to_int in
          check "lint: finding has rule/addr/message"
            (str "rule" <> None && int "addr" <> None && str "message" <> None);
          (match str "severity" with
          | Some "error" -> counts := { !counts with errors = !counts.errors + 1 }
          | Some "warning" ->
              counts := { !counts with warnings = !counts.warnings + 1 }
          | Some "info" -> counts := { !counts with infos = !counts.infos + 1 }
          | _ -> check "lint: finding has a valid severity" false))
    (lines text);
  !counts

(* ---- exit codes recomputed from the findings just printed ---- *)

let check_gate path (c : counts) =
  let code_err, _ = run (Printf.sprintf "lint %s --json" path) in
  check
    (Printf.sprintf "lint: default gate is --fail-on error (%d errors)"
       c.errors)
    (code_err = if c.errors > 0 then 1 else 0);
  let code_warn, _ =
    run (Printf.sprintf "lint %s --json --fail-on warning" path)
  in
  check
    (Printf.sprintf "lint: --fail-on warning (%d errors+warnings)"
       (c.errors + c.warnings))
    (code_warn = if c.errors + c.warnings > 0 then 1 else 0)

(* ---- adversarial scenario binaries through the same CLI surface ---- *)

let write_adversarial id =
  match Fetch_synth.Adversary.find id with
  | None ->
      check (Printf.sprintf "adversarial scenario %s exists" id) false;
      exit 1
  | Some sc -> save (Fetch_synth.Adversary.build sc ~seed:31)

(* Findings of one rule, straight from the JSONL stream. *)
let rule_findings path rule =
  let _, text = run (Printf.sprintf "lint %s --json --fail-on never" path) in
  List.filter
    (fun line ->
      match Json.parse line with
      | Error _ -> false
      | Ok j -> Option.bind (Json.member "rule" j) Json.to_str = Some rule)
    (lines text)

let () =
  let clean =
    write_binary ~seed:11
      { Fetch_synth.Gen.default_spec with n_funcs = 25; n_asm_called = 1 }
  in
  let broken =
    write_binary ~seed:12
      { Fetch_synth.Gen.default_spec with n_funcs = 20; n_broken_fde = 2 }
  in
  let warn = write_warning_binary ~seed:12 in
  let adv_cfi = write_adversarial "cfi-broken" in
  let adv_junk = write_adversarial "padding-junk" in
  List.iter
    (fun path ->
      check_gate path (check_jsonl path))
    [ clean; broken; warn; adv_cfi; adv_junk ];

  (* the cfi-broken corpus is Fig. 6b at scale: its ten hand-broken FDEs
     must surface through the lint surface, not just the eval harness —
     as split-fn-fde fragments, and as unreached FDE ranges (the
     rejected lying starts) *)
  check "lint: cfi-broken binary trips split-fn-fde"
    (rule_findings adv_cfi "split-fn-fde" <> []);
  check "lint: cfi-broken binary reports its ten lying FDEs as unreached"
    (List.length (rule_findings adv_cfi "fde-unreached") >= 10);
  (* junk pools are data, never reached: the mid-instruction-jump rule
     must stay quiet — forged prologues alone must not create findings *)
  check "lint: padding-junk binary stays clean of jump-mid-insn"
    (rule_findings adv_junk "jump-mid-insn" = []);

  (* the orphan-FDE binary must actually trip the warning gate, or the
     --fail-on warning checks above only ever saw exit 0 *)
  check "lint: orphan FDE yields a warning" ((check_jsonl warn).warnings > 0);

  (* ---- explain: a garbage address must exit 2 with usage, not crash ---- *)
  List.iter
    (fun addr ->
      let code, _ = run (Printf.sprintf "explain %s %s" clean addr) in
      check (Printf.sprintf "explain rejects %s with exit 2" addr) (code = 2))
    [ "zzz"; "0xgg"; "''" ];
  let code_ok, _ = run (Printf.sprintf "explain %s 0x401000" clean) in
  check "explain accepts a hex address" (code_ok = 0);

  (* ---- serve: one stdin session through the real executable ---- *)
  let reqs = Filename.temp_file "fetch_cli" ".jsonl" in
  let oc = open_out_bin reqs in
  Printf.fprintf oc
    {|{"id":1,"path":%s}
{"id":2,"path":%s,"want":["starts"]}
not even json
{"id":4,"path":"/nonexistent/fetch-cli-serve"}
{"op":"stats","id":5}
|}
    (Fetch_util.Json.escape clean)
    (Fetch_util.Json.escape clean);
  close_out oc;
  let stats_out = Filename.temp_file "fetch_cli" ".stats" in
  let code, serve_text =
    run
      (Printf.sprintf "serve --domains 2 --stats-json %s < %s"
         (Filename.quote stats_out) (Filename.quote reqs))
  in
  check "serve session exits 0" (code = 0);
  let responses = lines serve_text in
  check "serve answers every line" (List.length responses = 5);
  let field line k =
    match Json.parse line with
    | Ok j -> Json.member k j
    | Error _ -> None
  in
  let statuses =
    List.map (fun l -> Option.bind (field l "status") Json.to_str) responses
  in
  check "serve statuses in request order"
    (statuses
    = [ Some "ok"; Some "ok"; Some "error"; Some "error"; Some "ok" ]);
  let ids = List.map (fun l -> Option.bind (field l "id") Json.to_int) responses in
  check "serve echoes ids in order"
    (ids = [ Some 1; Some 2; None; Some 4; Some 5 ]);
  (match responses with
  | _ :: narrow :: bad :: missing :: stats :: _ ->
      check "serve want=starts drops findings" (field narrow "findings" = None);
      check "serve malformed line is bad_request"
        (Option.bind (field bad "code") Json.to_str = Some "bad_request");
      check "serve unreadable path is analysis_failed"
        (Option.bind (field missing "code") Json.to_str = Some "analysis_failed");
      check "serve in-band stats counts requests"
        (match
           Option.bind (field stats "stats") (Json.member "requests")
           |> Fun.flip Option.bind Json.to_int
         with
        | Some n -> n >= 4
        | None -> false)
  | _ -> check "serve responses have the expected shape" false);
  let stats_text = read_file stats_out in
  check "serve --stats-json writes a parseable snapshot on exit"
    (match Json.parse (String.trim stats_text) with
    | Ok j -> Json.member "cache" j <> None
    | Error _ -> false);
  (* an over-bound request line is answered, not fatal: the line is
     discarded to its newline and the stream resumes *)
  let oc = open_out_bin reqs in
  Printf.fprintf oc "{\"id\":1,\"bytes_b64\":\"%s\"}\n{\"op\":\"stats\"}\n"
    (String.make 4096 'A');
  close_out oc;
  let code, serve_text =
    run (Printf.sprintf "serve --max-line-kb 1 < %s" (Filename.quote reqs))
  in
  check "serve survives an over-bound line" (code = 0);
  (match lines serve_text with
  | [ oversized; stats ] ->
      check "over-bound line answered with bad_request"
        (Option.bind (field oversized "code") Json.to_str = Some "bad_request");
      check "stream resumes after the over-bound line"
        (Option.bind (field stats "status") Json.to_str = Some "ok")
  | rs -> check (Printf.sprintf "expected 2 responses, got %d" (List.length rs)) false);
  Sys.remove reqs;
  Sys.remove stats_out;

  Sys.remove clean;
  Sys.remove broken;
  Sys.remove warn;
  Sys.remove adv_cfi;
  Sys.remove adv_junk;
  if !failures > 0 then begin
    Printf.printf "%d CLI check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "all CLI checks passed"
