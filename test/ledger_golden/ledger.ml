(* Prints the provenance ledger of one of the pointer-heavy synth draws
   in {!Ledger_draws} as JSON lines: [ledger.exe gcc], [ledger.exe llvm]
   or [ledger.exe shared]. *)

let () =
  let b =
    match Sys.argv with
    | [| _; name |] when List.mem name Ledger_draws.names -> Ledger_draws.build name
    | _ -> failwith "usage: ledger.exe gcc|llvm|shared"
  in
  match
    Fetch_obs.Provenance.with_run (fun () -> Fetch_core.Pipeline.run_bytes b.raw)
  with
  | Ok _, events -> print_string (Fetch_obs.Provenance.to_json_lines events)
  | Error e, _ -> failwith e
