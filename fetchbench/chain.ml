(* The chain a serve worker runs for one binary, from raw ELF bytes to
   the rendered summary JSON: ELF decode, [Loaded.load], the pipeline,
   the summary with its lint pass, and the JSON rendering. *)

module Trace = Fetch_obs.Trace
module Clock = Fetch_obs.Clock
module Pipeline = Fetch_core.Pipeline
module Summary = Fetch_core.Summary
module Loaded = Fetch_analysis.Loaded

let run raw =
  match Fetch_elf.Decode.decode raw with
  | Error e -> Error ("not a loadable ELF: " ^ e)
  | Ok img -> (
      match Summary.to_json (Summary.of_result (Pipeline.run_loaded (Loaded.load img))) with
      | json -> Ok json
      | exception e -> Error (Printexc.to_string e))

type traced = {
  json : string;
  report : Trace.report;
  wall_ns : int64;  (** inside the trace run, from before the first span to after the last *)
  memo_entries : int;  (** instructions decoded, once each *)
  reseeded : bool;  (** the Fig. 6b check dropped an FDE, so detection ran twice *)
}

(* The same chain in a trace run, with a span around every call into a
   layer: ELF decode, [.eh_frame] decode, the rest of [Loaded.load]
   (given the decoded section), the pipeline (which spans itself), the
   summary with its lint pass, and the JSON rendering. *)
let traced raw =
  let result, report =
    Trace.with_run (fun () ->
        let t0 = Clock.now_ns () in
        match Trace.span "elf.decode" (fun () -> Fetch_elf.Decode.decode raw) with
        | Error e -> Error ("not a loadable ELF: " ^ e)
        | Ok img -> (
            match
              let eh = Trace.span "eh_frame.decode" (fun () -> Fetch_dwarf.Eh_frame.of_image img) in
              let loaded = Trace.span "loaded.load" (fun () -> Loaded.load ~eh img) in
              let r = Pipeline.run_loaded loaded in
              let s = Trace.span "summary" (fun () -> Summary.of_result r) in
              let json = Trace.span "summary.json" (fun () -> Summary.to_json s) in
              (json, Hashtbl.length loaded.cache, r.invalid_fde_starts <> [])
            with
            | json, memo_entries, reseeded ->
                Ok (json, memo_entries, reseeded, Clock.elapsed_ns t0)
            | exception e -> Error (Printexc.to_string e)))
  in
  Result.map
    (fun (json, memo_entries, reseeded, wall_ns) -> { json; report; wall_ns; memo_entries; reseeded })
    result
