(* The `fetch` command-line tool.

   Subcommands:
     generate   build a synthetic ELF binary (plus ground-truth manifest)
     analyze    run FETCH on an ELF binary and print detected starts
     explain    replay the decision chain for one address
     disasm     linear disassembly of a binary's text section
     compare    run every tool model on a binary and score against truth
     unwind     show FDE records and CFI stack-height tables
     handlers   list LSDA call sites and landing pads
     lint       cross-layer consistency check of a FETCH run
     adversarial  per-scenario robustness eval over the adversarial corpus
     batch      run the pipeline over many binaries on a domain pool
     serve      long-running analysis daemon with a content-addressed cache *)

open Cmdliner

module IS = Set.Make (Int)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  match open_out_bin path with
  | oc ->
      output_string oc s;
      close_out oc
  | exception Sys_error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1

let load_image path =
  match Fetch_elf.Decode.decode (read_file path) with
  | Ok img -> img
  | Error e ->
      Printf.eprintf "error: %s: %s\n" path e;
      exit 1

(* ---- generate ---- *)

let generate seed n_funcs compiler opt cxx keep_symbols out truth_out =
  let compiler =
    match compiler with
    | "gcc" -> Fetch_synth.Profile.Synthgcc
    | "llvm" -> Fetch_synth.Profile.Synthllvm
    | other ->
        Printf.eprintf "unknown compiler %s (use gcc or llvm)\n" other;
        exit 1
  in
  let opt =
    match opt with
    | "O2" -> Fetch_synth.Profile.O2
    | "O3" -> Fetch_synth.Profile.O3
    | "Os" -> Fetch_synth.Profile.Os
    | "Ofast" | "Of" -> Fetch_synth.Profile.Ofast
    | other ->
        Printf.eprintf "unknown optimization level %s\n" other;
        exit 1
  in
  let profile = Fetch_synth.Profile.make compiler opt in
  let spec =
    {
      Fetch_synth.Gen.default_spec with
      n_funcs;
      cxx;
      strip = not keep_symbols;
      n_asm_called = 1;
      n_asm_tailonly = 1;
      n_asm_pointer = 1;
    }
  in
  let built = Fetch_synth.Link.build_random ~profile ~seed spec in
  write_file out built.raw;
  Printf.printf "wrote %s (%d bytes, %d functions, entry %#x)\n" out
    (String.length built.raw)
    (List.length built.truth.fns)
    built.image.entry;
  match truth_out with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 1024 in
      List.iter
        (fun (f : Fetch_synth.Truth.fn_truth) ->
          Buffer.add_string buf
            (Printf.sprintf "%#x %d %s%s%s\n" f.start f.size f.name
               (if f.is_assembly then " [asm]" else "")
               (if not f.has_fde then " [no-fde]" else "")))
        built.truth.fns;
      write_file path (Buffer.contents buf);
      Printf.printf "wrote ground truth to %s\n" path

(* ---- analyze ---- *)

let analyze path verbose stats trace_json trace_chrome provenance =
  let img = load_image path in
  let instrumented = stats || trace_json <> None || trace_chrome <> None in
  (* the ledger and the trace recorder are independent; bracket each
     only when its output was asked for *)
  let run_ledgered () =
    if provenance = None then (Fetch_core.Pipeline.run img, [])
    else Fetch_obs.Provenance.with_run (fun () -> Fetch_core.Pipeline.run img)
  in
  let (r, events), report =
    if instrumented then
      let v, rep = Fetch_obs.Trace.with_run run_ledgered in
      (v, Some rep)
    else (run_ledgered (), None)
  in
  Printf.printf "%d function starts detected:\n" (List.length r.starts);
  List.iter (fun s -> Printf.printf "  %#x\n" s) r.starts;
  (match provenance with
  | None -> ()
  | Some file ->
      write_file file (Fetch_obs.Provenance.to_json_lines events);
      Printf.printf "wrote %d provenance events to %s\n" (List.length events)
        file);
  (match report with
  | None -> ()
  | Some rep ->
      (match trace_json with
      | None -> ()
      | Some file ->
          write_file file (Fetch_obs.Report.json_lines rep);
          Printf.printf "wrote trace to %s\n" file);
      (match trace_chrome with
      | None -> ()
      | Some file ->
          write_file file (Fetch_obs.Report.chrome_trace rep);
          Printf.printf "wrote Chrome trace to %s (load in Perfetto)\n" file);
      if stats then begin
        print_newline ();
        print_string (Fetch_obs.Report.text rep);
        (* .eh_frame parse health: the paper's coverage argument only
           holds for the records we actually recovered *)
        let eh = r.eh_frame in
        Printf.printf
          "\neh_frame: %d records decoded, %d skipped, %d diagnostics\n"
          eh.records_ok eh.records_skipped
          (List.length eh.diags);
        List.iter
          (fun d ->
            Printf.printf "  %s\n" (Fetch_dwarf.Diag.to_string d))
          eh.diags;
        (* seed attribution: where the final starts came from *)
        let seed_set = IS.of_list r.final_seeds in
        let seeded = List.filter (fun s -> IS.mem s seed_set) r.starts in
        Printf.printf
          "\n%d final starts: %d from the final seed set (%d seeds: FDEs, \
           symbols, accepted pointers), %d discovered by recursion\n"
          (List.length r.starts) (List.length seeded)
          (List.length r.final_seeds)
          (List.length r.starts - List.length seeded)
      end);
  if verbose then begin
    (match r.tailcall with
    | Some o ->
        Printf.printf "\ntail calls detected: %d\n" (List.length o.tail_calls);
        List.iter
          (fun (site, t) -> Printf.printf "  jmp at %#x -> %#x\n" site t)
          o.tail_calls;
        Printf.printf "non-contiguous parts merged: %d\n" (List.length o.merges);
        List.iter
          (fun (part, parent) -> Printf.printf "  %#x merged into %#x\n" part parent)
          o.merges
    | None -> ());
    if r.invalid_fde_starts <> [] then begin
      Printf.printf "FDE starts rejected by calling-convention check:\n";
      List.iter (fun s -> Printf.printf "  %#x\n" s) r.invalid_fde_starts
    end
  end

(* ---- explain ---- *)

let explain path addr_str =
  let addr =
    (* int_of_string accepts 0x-prefixed hex and plain decimal *)
    match int_of_string_opt addr_str with
    | Some a -> a
    | None ->
        Printf.eprintf "error: bad address %S (use decimal or 0x hex)\n"
          addr_str;
        exit 2
  in
  let img = load_image path in
  let _r, events =
    Fetch_obs.Provenance.with_run (fun () -> Fetch_core.Pipeline.run img)
  in
  print_string (Fetch_obs.Provenance.explain ~addr events)

(* ---- disasm ---- *)

let disasm path =
  let img = load_image path in
  let loaded = Fetch_analysis.Loaded.load img in
  List.iter
    (fun (lo, hi) ->
      let insns, junk = Fetch_analysis.Linear_sweep.decode_range loaded ~lo ~hi in
      List.iter
        (fun (addr, _, insn) ->
          Printf.printf "%#x: %s\n" addr (Fetch_x86.Insn.to_string insn))
        insns;
      if junk <> [] then
        Printf.printf "(%d undecodable bytes skipped)\n" (List.length junk))
    (Fetch_analysis.Loaded.text_ranges loaded)

(* ---- compare ---- *)

let compare_tools path truth_path =
  let img = load_image path in
  let loaded = Fetch_analysis.Loaded.load img in
  let truth_starts =
    match truth_path with
    | Some p ->
        read_file p |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | addr :: _ when addr <> "" -> int_of_string_opt addr
               | _ -> None)
    | None -> []
  in
  List.iter
    (fun (tool : Fetch_baselines.Tools.t) ->
      let detected, dt = Fetch_obs.Clock.time_s (fun () -> tool.detect loaded) in
      if truth_starts = [] then
        Printf.printf "%-14s %5d starts  (%.1f ms)\n" tool.name
          (List.length detected) (1000.0 *. dt)
      else begin
        let m = Fetch_eval.Metrics.score_lists ~truth:truth_starts ~detected in
        Printf.printf "%-14s %5d starts, FP %4d, FN %4d  (%.1f ms)\n" tool.name
          (List.length detected)
          (List.length m.fp) (List.length m.fn) (1000.0 *. dt)
      end)
    Fetch_baselines.Tools.all

(* ---- unwind ---- *)

(* Parser diagnostics (skipped/degraded records) go to stderr so the
   record dump stays machine-consumable. *)
let report_eh_diags (eh : Fetch_dwarf.Eh_frame.decoded) =
  List.iter
    (fun d -> Printf.eprintf "eh_frame: %s\n" (Fetch_dwarf.Diag.to_string d))
    eh.diags

let unwind path =
  let img = load_image path in
  let eh = Fetch_dwarf.Eh_frame.of_image img in
  report_eh_diags eh;
  let cies = eh.cies in
  List.iteri
        (fun i (cie : Fetch_dwarf.Eh_frame.cie) ->
          Printf.printf "CIE %d: code_align=%d data_align=%d ra=r%d\n" i
            cie.code_align cie.data_align cie.ra_reg;
          List.iter
            (fun (fde : Fetch_dwarf.Eh_frame.fde) ->
              Printf.printf "  FDE pc=[%#x, %#x) len=%d\n" fde.pc_begin
                (fde.pc_begin + fde.pc_range) fde.pc_range;
              match Fetch_dwarf.Cfa_table.rows ~cie fde with
              | rows ->
                  List.iter
                    (fun (r : Fetch_dwarf.Cfa_table.row) ->
                      let cfa =
                        match r.cfa with
                        | Fetch_dwarf.Cfa_table.Cfa_reg_offset (reg, o) ->
                            Printf.sprintf "r%d+%d" reg o
                        | Fetch_dwarf.Cfa_table.Cfa_expr -> "<expr>"
                      in
                      Printf.printf "    +%-4d CFA=%s%s\n" r.loc cfa
                        (match
                           Fetch_dwarf.Cfa_table.height_at rows r.loc
                         with
                        | Some h -> Printf.sprintf "  height=%d" h
                        | None -> ""))
                    rows
              | exception Fetch_dwarf.Cfa_table.Unsupported m ->
                  Printf.printf "    (unsupported CFI: %s)\n" m)
            cie.fdes)
        cies

(* ---- handlers ---- *)

let handlers path =
  let img = load_image path in
  let eh = Fetch_dwarf.Eh_frame.of_image img in
  report_eh_diags eh;
  let cies = eh.cies in
  let except = Fetch_elf.Image.section img ".gcc_except_table" in
      let lsda_of addr =
        match except with
        | Some s when addr >= s.addr && addr < s.addr + String.length s.data
          -> (
            let off = addr - s.addr in
            match
              Fetch_dwarf.Lsda.decode
                (String.sub s.data off (String.length s.data - off))
            with
            | Ok l -> Some l
            | Error _ -> None)
        | _ -> None
      in
      let any = ref false in
      List.iter
        (fun (fde : Fetch_dwarf.Eh_frame.fde) ->
          match fde.lsda with
          | None -> ()
          | Some l -> (
              match lsda_of l with
              | None -> Printf.printf "FDE %#x: unreadable LSDA at %#x\n" fde.pc_begin l
              | Some lsda ->
                  any := true;
                  Printf.printf "function %#x (LSDA %#x):\n" fde.pc_begin l;
                  List.iter
                    (fun (cs : Fetch_dwarf.Lsda.call_site) ->
                      Printf.printf
                        "  try [%#x, %#x) -> landing pad %#x (action %d)\n"
                        (fde.pc_begin + cs.cs_start)
                        (fde.pc_begin + cs.cs_start + cs.cs_len)
                        (fde.pc_begin + cs.landing_pad)
                        cs.action)
                    lsda.call_sites))
        (Fetch_dwarf.Eh_frame.all_fdes cies);
      if not !any then print_endline "(no LSDAs: not a C++-style binary)"

(* ---- lint ---- *)

let lint path json stats fail_on =
  let img = load_image path in
  let work () =
    let r = Fetch_core.Pipeline.run img in
    Fetch_core.Lint.run r
  in
  let findings, report =
    if stats then
      let f, rep = Fetch_obs.Trace.with_run work in
      (f, Some rep)
    else (work (), None)
  in
  List.iter
    (fun f ->
      print_endline
        (if json then Fetch_check.Finding.to_json f
         else Fetch_check.Finding.to_string f))
    findings;
  let errors = Fetch_check.Finding.count Error findings in
  let warnings = Fetch_check.Finding.count Warning findings in
  if not json then
    Printf.printf "%d finding%s: %d error%s, %d warning%s, %d info\n"
      (List.length findings)
      (if List.length findings = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s")
      (Fetch_check.Finding.count Info findings);
  (match report with
  | None -> ()
  | Some rep ->
      (* per-rule lint.findings.* counters plus pipeline/lint timings *)
      print_newline ();
      print_string (Fetch_obs.Report.text rep));
  let gate =
    match fail_on with
    | "never" -> false
    | "warning" -> errors + warnings > 0
    | _ -> errors > 0
  in
  if gate then exit 1

(* ---- adversarial ---- *)

let adversarial list_scenarios scale only json_out check_floors =
  if list_scenarios then begin
    List.iter
      (fun (s : Fetch_synth.Adversary.t) ->
        Printf.printf "%-16s %s\n%16s stresses: %s\n" s.id s.summary "" s.stresses)
      Fetch_synth.Adversary.all;
    exit 0
  end;
  if scale <= 0.0 || scale > 1.0 then begin
    Printf.eprintf "error: --scale %g is out of range (0, 1]\n" scale;
    exit 2
  end;
  let ids = Fetch_synth.Adversary.ids () in
  List.iter
    (fun id ->
      if not (List.mem id ids) then begin
        Printf.eprintf "error: unknown scenario %S (known: %s)\n" id
          (String.concat ", " ids);
        exit 2
      end)
    only;
  let only = if only = [] then None else Some only in
  let t = Fetch_eval.Exp_adversarial.run ~scale ?only () in
  print_string (Fetch_eval.Exp_adversarial.render t);
  (match json_out with
  | None -> ()
  | Some file ->
      write_file file (Fetch_eval.Exp_adversarial.json_lines t);
      Printf.printf "\nwrote %d rows to %s\n"
        (List.length t.Fetch_eval.Exp_adversarial.rows)
        file);
  if check_floors then begin
    match Fetch_eval.Exp_adversarial.floor_failures t with
    | [] -> Printf.printf "\nfloor gate passed: FETCH at or above every recorded floor\n"
    | fails ->
        Printf.eprintf "\nfloor gate FAILED (%d scenario%s):\n" (List.length fails)
          (if List.length fails = 1 then "" else "s");
        List.iter
          (fun (id, f1, floor) ->
            Printf.eprintf "  %s: FETCH F1 %.4f below floor %.4f\n" id f1 floor)
          fails;
        exit 1
  end

(* ---- batch ---- *)

(* An explicitly-listed path is always analyzed (failures show up as
   per-binary failure records); a directory is scanned one level deep
   for files that look like ELF, so truth manifests and reports sitting
   next to the binaries don't become noise. *)
let looks_like_elf path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      let r =
        match really_input_string ic 4 with
        | magic -> magic = "\x7fELF"
        | exception End_of_file -> false
      in
      close_in ic;
      r

let batch_files paths =
  List.concat_map
    (fun p ->
      if Sys.file_exists p && Sys.is_directory p then
        Sys.readdir p |> Array.to_list |> List.sort compare
        |> List.filter_map (fun f ->
               let full = Filename.concat p f in
               if (not (Sys.is_directory full)) && looks_like_elf full then
                 Some full
               else None)
      else [ p ])
    paths

let batch paths domains json no_timings no_lint fail_on_failure =
  let files = batch_files paths in
  if files = [] then begin
    Printf.eprintf "error: no binaries to analyze\n";
    exit 2
  end;
  let domains = if domains <= 0 then None else Some domains in
  let t =
    Fetch_core.Batch.run ?domains ~lint:(not no_lint)
      (List.map Fetch_core.Batch.item_of_file files)
  in
  print_string
    (if json then Fetch_core.Batch.json_lines ~timings:(not no_timings) t
     else Fetch_core.Batch.text t);
  if fail_on_failure && t.n_failed > 0 then exit 1

(* ---- serve ---- *)

let serve socket queue cache_mb domains max_line_kb stats_json trace_chrome =
  if queue < 1 then begin
    Printf.eprintf "error: --queue must be at least 1\n";
    exit 2
  end;
  if cache_mb < 0 then begin
    Printf.eprintf "error: --cache-mb must be non-negative\n";
    exit 2
  end;
  let engine =
    {
      Fetch_serve.Engine.default_config with
      queue_bound = queue;
      cache_bytes = cache_mb * 1024 * 1024;
      domains =
        (if domains <= 0 then Fetch_par.Pool.default_domains () else domains);
      (* per-task trace capture costs a with_run per analysis: only pay
         for it when a trace was asked for *)
      capture_reports = trace_chrome <> None;
    }
  in
  let config =
    {
      Fetch_serve.Serve.engine;
      max_line_bytes = max_line_kb * 1024;
      stats_json_path = stats_json;
      trace_chrome_path = trace_chrome;
    }
  in
  match socket with
  | Some path ->
      (* SIGINT/SIGTERM request a graceful stop so the final stats /
         trace dumps run and the socket file is removed *)
      let stop = Atomic.make false in
      let request_stop _ = Atomic.set stop true in
      (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
       with Invalid_argument _ | Sys_error _ -> ());
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
       with Invalid_argument _ | Sys_error _ -> ());
      Fetch_serve.Serve.run_socket ~config
        ~should_stop:(fun () -> Atomic.get stop)
        path
  | None -> Fetch_serve.Serve.run_stdin ~config Unix.stdin Unix.stdout

(* ---- cmdliner wiring ---- *)

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"BINARY")

let generate_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let n = Arg.(value & opt int 60 & info [ "functions" ] ~doc:"Number of functions.") in
  let compiler =
    Arg.(value & opt string "gcc" & info [ "compiler" ] ~doc:"gcc or llvm.")
  in
  let opt_level =
    Arg.(value & opt string "O2" & info [ "opt" ] ~doc:"O2, O3, Os or Ofast.")
  in
  let cxx = Arg.(value & flag & info [ "cxx" ] ~doc:"C++-style program (throw sites).") in
  let syms = Arg.(value & flag & info [ "symbols" ] ~doc:"Keep the symbol table.") in
  let out =
    Arg.(value & opt string "a.out" & info [ "o"; "output" ] ~doc:"Output path.")
  in
  let truth =
    Arg.(value & opt (some string) None & info [ "truth" ] ~doc:"Ground-truth output path.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic x86-64 ELF binary with .eh_frame")
    Term.(const generate $ seed $ n $ compiler $ opt_level $ cxx $ syms $ out $ truth)

let analyze_cmd =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show tail calls and merges.") in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print per-stage wall-clock timings and pipeline counters.")
  in
  let trace_json =
    Arg.(value & opt (some string) None
         & info [ "trace-json" ] ~docv:"FILE"
             ~doc:"Write the pipeline trace (spans and counters) as JSON lines to $(docv).")
  in
  let trace_chrome =
    Arg.(value & opt (some string) None
         & info [ "trace-chrome" ] ~docv:"FILE"
             ~doc:"Write the pipeline trace in Chrome trace-event format to \
                   $(docv), loadable in Perfetto (ui.perfetto.dev) or \
                   chrome://tracing.")
  in
  let provenance =
    Arg.(value & opt (some string) None
         & info [ "provenance" ] ~docv:"FILE"
             ~doc:"Record the decision ledger and write it as JSON lines to \
                   $(docv): one event per candidate-start decision (seed \
                   origins, xref accept/reject with evidence, Algorithm 1 \
                   verdicts, final starts).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Detect function starts with FETCH")
    Term.(
      const analyze $ path_arg $ verbose $ stats $ trace_json $ trace_chrome
      $ provenance)

let explain_cmd =
  let addr =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"ADDR" ~doc:"Address to explain (decimal or 0x hex).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay the pipeline's decision chain for one address: why it was \
          (or was not) detected as a function start")
    Term.(const explain $ path_arg $ addr)

let disasm_cmd =
  Cmd.v (Cmd.info "disasm" ~doc:"Linear disassembly of the text section")
    Term.(const disasm $ path_arg)

let compare_cmd =
  let truth =
    Arg.(value & opt (some file) None & info [ "truth" ] ~doc:"Ground-truth file from generate.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run all tool models on a binary")
    Term.(const compare_tools $ path_arg $ truth)

let unwind_cmd =
  Cmd.v
    (Cmd.info "unwind" ~doc:"Dump .eh_frame FDEs and CFI stack-height tables")
    Term.(const unwind $ path_arg)

let handlers_cmd =
  Cmd.v
    (Cmd.info "handlers" ~doc:"List LSDA call sites and landing pads")
    Term.(const handlers $ path_arg)

let lint_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit findings as JSON lines instead of text.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print per-rule finding counters and stage timings.")
  in
  let fail_on =
    Arg.(value
         & opt (enum [ ("error", "error"); ("warning", "warning"); ("never", "never") ])
             "error"
         & info [ "fail-on" ] ~docv:"SEVERITY"
             ~doc:"Exit non-zero when findings at or above $(docv) exist \
                   (error, warning or never).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Cross-check a FETCH run's layers and report inconsistencies")
    Term.(const lint $ path_arg $ json $ stats $ fail_on)

let adversarial_cmd =
  let list_scenarios =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List the scenario catalog and exit.")
  in
  let scale =
    Arg.(value & opt float 1.0
         & info [ "scale" ] ~docv:"FRACTION"
             ~doc:"Shrink each scenario's corpus to $(docv) of the full \
                   binary count (floor one binary).")
  in
  let only =
    Arg.(value & opt_all string []
         & info [ "only" ] ~docv:"SCENARIO"
             ~doc:"Run only $(docv) (repeatable); the clean control always \
                   runs so deltas stay defined.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write one JSON object per (scenario, tool) row to $(docv).")
  in
  let check_floors =
    Arg.(value & flag
         & info [ "check-floors" ]
             ~doc:"Exit non-zero when FETCH's F1 falls below any scenario's \
                   recorded regression floor.")
  in
  Cmd.v
    (Cmd.info "adversarial"
       ~doc:
         "Score FETCH and every baseline over the adversarial scenario \
          corpus (padding pools, hand-written CFI, CET decoys, 64-bit \
          DWARF, stripped .eh_frame_hdr, overlapping FDEs) and report \
          per-scenario F1 deltas against the clean control")
    Term.(
      const adversarial $ list_scenarios $ scale $ only $ json_out
      $ check_floors)

let batch_cmd =
  let paths =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"ELF binaries, or directories scanned (one level) for ELF files.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domain count (default: the runtime's recommended count).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as JSON lines instead of text.")
  in
  let no_timings =
    Arg.(
      value & flag
      & info [ "no-timings" ]
          ~doc:
            "Omit wall-clock, stage-timing and domain-count fields so the \
             report is a deterministic function of the inputs (byte-identical \
             across domain counts).")
  in
  let no_lint =
    Arg.(
      value & flag
      & info [ "no-lint" ] ~doc:"Skip the per-binary cross-layer lint.")
  in
  let fail_on_failure =
    Arg.(
      value & flag
      & info [ "fail-on-failure" ]
          ~doc:"Exit non-zero when any binary's analysis failed.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze many binaries concurrently on a fixed-size domain pool; a \
          failure on one binary becomes a structured record, never aborting \
          the batch")
    Term.(
      const batch $ paths $ domains $ json $ no_timings $ no_lint
      $ fail_on_failure)

let serve_cmd =
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv), serving connections \
             one at a time, instead of serving stdin/stdout.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Maximum in-flight analyses; past it new requests are shed with \
             a structured overloaded error.")
  in
  let cache_mb =
    Arg.(
      value & opt int 64
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"Content-addressed result cache byte budget (LRU eviction).")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domain count (default: the runtime's recommended count).")
  in
  let max_line_kb =
    Arg.(
      value & opt int (64 * 1024)
      & info [ "max-line-kb" ] ~docv:"KB"
          ~doc:
            "Longest accepted request line; longer lines are discarded up \
             to the next newline and answered with bad_request.")
  in
  let stats_json =
    Arg.(
      value & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write the final serve.* stats JSON to $(docv) on exit.")
  in
  let trace_chrome =
    Arg.(
      value & opt (some string) None
      & info [ "trace-chrome" ] ~docv:"FILE"
          ~doc:
            "Capture per-request pipeline traces and write the merged \
             Chrome trace to $(docv) on exit (cache hits record no \
             pipeline spans).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running analysis daemon: JSON-lines requests over stdin or a \
          Unix-domain socket, responses streamed back in request order, \
          repeated binaries answered from a content-addressed cache")
    Term.(
      const serve $ socket $ queue $ cache_mb $ domains $ max_line_kb
      $ stats_json $ trace_chrome)

let () =
  let doc = "function detection with exception handling information" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "fetch" ~doc)
          [
            generate_cmd; analyze_cmd; explain_cmd; disasm_cmd; compare_cmd;
            unwind_cmd; handlers_cmd; lint_cmd; adversarial_cmd;
            batch_cmd; serve_cmd;
          ]))
