(* Prints the provenance ledger of one pointer-heavy synth draw as JSON
   lines, [ledger.exe gcc], [ledger.exe llvm] or [ledger.exe shared].
   The draws use the fetchbench pointer-heavy spec at its lower bounds
   (20 data-pointer and 14 code-pointer asm functions, 2 broken FDEs), so
   most starts come from §IV-E rounds and every draw takes the Fig. 6b
   reseed path.  In the [shared] draw, a function that jumps back into
   another one's body shares its bytes, and seven §IV-E rejections per
   pass land there: their [into] pins that shared code goes to the
   highest owning entry. *)

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
    | [| _; "shared" |] -> (Profile.Synthgcc, 17)
    | _ -> failwith "usage: ledger.exe gcc|llvm|shared"
  in
  let b = Link.build_random ~profile:(Profile.make compiler Profile.O2) ~seed spec in
  match
    Fetch_obs.Provenance.with_run (fun () -> Fetch_core.Pipeline.run_bytes b.raw)
  with
  | Ok _, events -> print_string (Fetch_obs.Provenance.to_json_lines events)
  | Error e, _ -> failwith e
