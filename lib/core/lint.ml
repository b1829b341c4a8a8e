(** Adapter from a finished pipeline run to {!Fetch_check.Lint} — see the
    interface. *)

open Fetch_analysis

let view loaded (res : Recursive.result) ~starts ~refs =
  (* the linter looks only at the functions the pipeline kept *)
  let funcs =
    List.filter_map
      (fun entry ->
        match Hashtbl.find_opt res.Recursive.funcs entry with
        | None -> None
        | Some (f : Recursive.func) ->
            Some
              {
                Fetch_check.Lint.entry;
                blocks = f.blocks;
                jumps = f.all_jump_sites;
              })
      starts
  in
  {
    Fetch_check.Lint.block_table = loaded.Loaded.blocks;
    funcs;
    insn_spans = res.Recursive.insn_spans;
    fdes =
      List.map
        (fun (f : Fetch_dwarf.Eh_frame.fde) ->
          (f.pc_begin, f.pc_begin + f.pc_range))
        loaded.Loaded.fdes;
    complete_at = Fetch_dwarf.Height_oracle.complete_at loaded.Loaded.oracle;
    oracle_height = Fetch_dwarf.Height_oracle.along loaded.Loaded.oracle;
    entry_height =
      Fetch_dwarf.Height_oracle.height_at_unchecked loaded.Loaded.oracle;
    callconv_ok = (fun s -> Result.is_ok (Callconv.validate loaded res s));
    call_returns =
      (fun t ->
        (* conditionally-noreturn callees may return: falling through is
           the sound assumption for the height comparison *)
        Recursive.call_returns ~noreturn:res.noreturn
          ~cond_noreturn:res.cond_noreturn Recursive.Zero t);
    referenced_outside_jumps_of =
      (fun ~entry t ->
        Refs.referenced_outside_jumps_of refs ~entry t);
    resolve_indirect =
      (fun ~window op ->
        match Jump_table.resolve loaded.Loaded.image ~preceding:window op with
        | Some { Jump_table.targets; _ } -> Some targets
        | None -> None);
  }

let view_of (r : Pipeline.result) =
  view r.loaded r.rec_result ~starts:r.starts ~refs:r.refs

let run r = Fetch_check.Lint.run (view_of r)
