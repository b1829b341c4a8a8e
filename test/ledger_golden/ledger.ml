(* Prints the provenance ledger of one pointer-heavy synth draw as JSON
   lines, [ledger.exe gcc] or [ledger.exe llvm].  The draws use the
   fetchbench pointer-heavy spec at its lower bounds (20 data-pointer and
   14 code-pointer asm functions, 2 broken FDEs), so most starts come
   from §IV-E rounds and both draws take the Fig. 6b reseed path. *)

open Fetch_synth

let spec =
  {
    Gen.default_spec with
    n_funcs = 40;
    n_asm_called = 4;
    n_asm_tailonly = 3;
    n_asm_pointer = 20;
    n_asm_code_ptr = 14;
    n_asm_unreachable = 2;
    n_broken_fde = 2;
    strip = true;
  }

let () =
  let compiler, seed =
    match Sys.argv with
    | [| _; "gcc" |] -> (Profile.Synthgcc, 2)
    | [| _; "llvm" |] -> (Profile.Synthllvm, 3)
    | _ -> failwith "usage: ledger.exe gcc|llvm"
  in
  let b = Link.build_random ~profile:(Profile.make compiler Profile.O2) ~seed spec in
  match
    Fetch_obs.Provenance.with_run (fun () -> Fetch_core.Pipeline.run_bytes b.raw)
  with
  | Ok _, events -> print_string (Fetch_obs.Provenance.to_json_lines events)
  | Error e, _ -> failwith e
