(** Cacheable pipeline-result summary — contract in the mli. *)

type t = {
  starts : int list;
  n_seeds : int;
  records_ok : int;
  records_skipped : int;
  indirect_derefs : int;
  diags : string list;
  findings : Fetch_check.Finding.t list;
}

let of_result ?(lint = true) (r : Pipeline.result) =
  {
    starts = r.starts;
    n_seeds = List.length r.final_seeds;
    records_ok = r.loaded.eh_frame.records_ok;
    records_skipped = r.loaded.eh_frame.records_skipped;
    indirect_derefs = r.loaded.eh_frame.indirect_derefs;
    diags = List.map Fetch_dwarf.Diag.to_string r.loaded.eh_frame.diags;
    findings = (if lint then Lint.run r else []);
  }

let to_json t =
  let str = Fetch_util.Json.escape in
  Printf.sprintf
    "{\"starts\":[%s],\"n_seeds\":%d,\"eh_frame\":{\"records_ok\":%d,\"records_skipped\":%d,\"indirect_derefs\":%d},\"diags\":[%s],\"findings\":[%s]}"
    (String.concat "," (List.map string_of_int t.starts))
    t.n_seeds t.records_ok t.records_skipped t.indirect_derefs
    (String.concat "," (List.map str t.diags))
    (String.concat "," (List.map Fetch_check.Finding.to_json t.findings))
