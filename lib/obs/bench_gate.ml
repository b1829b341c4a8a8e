(** Bench snapshot codec and regression gate (see mli). *)

module Json = Fetch_util.Json

type host = {
  cores : int;
  os_type : string;
  word_size : int;
  ocaml_version : string;
}

let this_host () =
  {
    cores = Domain.recommended_domain_count ();
    os_type = Sys.os_type;
    word_size = Sys.word_size;
    ocaml_version = Sys.ocaml_version;
  }

type stage = {
  s_name : string;
  s_calls : int;
  s_total_ms : float;
  s_mean_ms : float;
}

type snapshot = {
  schema : string;
  scale : float;
  binaries : int;
  domains : int;
  host : host option;
  seq_wall_s : float;
  par_wall_s : float;
  pipeline_total_ms : float;
  stages : stage list;
  counters : (string * int) list;
  histograms : (string * Trace.hist_stats) list;
}

(* /6: the perf section no longer builds a declarative fact base per
   binary, so the facts.extract / facts.eval stages and the facts.*
   counters are gone — /5 baselines carry them and must be re-captured. *)
let schema_current = "fetch-bench-pipeline/6"

(* ---- writer ---- *)

let to_json (s : snapshot) =
  let buf = Buffer.create 4096 in
  let str = Json.escape in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema\": %s,\n" (str s.schema));
  Buffer.add_string buf (Printf.sprintf "  \"scale\": %g,\n" s.scale);
  Buffer.add_string buf (Printf.sprintf "  \"binaries\": %d,\n" s.binaries);
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" s.domains);
  (match s.host with
  | None -> ()
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf
           "  \"host\": {\"cores_available\": %d, \"os_type\": %s, \
            \"word_size\": %d, \"ocaml_version\": %s},\n"
           h.cores (str h.os_type) h.word_size (str h.ocaml_version)));
  Buffer.add_string buf (Printf.sprintf "  \"seq_wall_s\": %.3f,\n" s.seq_wall_s);
  Buffer.add_string buf (Printf.sprintf "  \"par_wall_s\": %.3f,\n" s.par_wall_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup\": %.2f,\n"
       (if s.par_wall_s > 0.0 then s.seq_wall_s /. s.par_wall_s else 0.0));
  Buffer.add_string buf
    (Printf.sprintf "  \"pipeline_total_ms\": %.3f,\n" s.pipeline_total_ms);
  Buffer.add_string buf "  \"stages\": [\n";
  List.iteri
    (fun i st ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %s, \"calls\": %d, \"total_ms\": %.3f, \
            \"mean_ms_per_binary\": %.3f}%s\n"
           (str st.s_name) st.s_calls st.s_total_ms st.s_mean_ms
           (if i = List.length s.stages - 1 then "" else ",")))
    s.stages;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"counters\": [\n";
  List.iteri
    (fun i (n, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": %s, \"value\": %d}%s\n" (str n) v
           (if i = List.length s.counters - 1 then "" else ",")))
    s.counters;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"histograms\": [\n";
  List.iteri
    (fun i (n, h) ->
      (* reuse the report line shape, minus the "type" discriminator *)
      let line = Report.histogram_json n h in
      let line =
        (* {"type":"histogram","name":... -> {"name":... *)
        match String.index_opt line ',' with
        | Some c -> "{" ^ String.sub line (c + 1) (String.length line - c - 1)
        | None -> line
      in
      Buffer.add_string buf
        (Printf.sprintf "    %s%s\n" line
           (if i = List.length s.histograms - 1 then "" else ",")))
    s.histograms;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* ---- reader ---- *)

let ( let* ) r f = Result.bind r f

let req what = function Some v -> Ok v | None -> Error ("missing or invalid " ^ what)

let parse_stage j =
  let* name = req "stage name" Json.(Option.bind (member "name" j) to_str) in
  let* calls = req "stage calls" Json.(Option.bind (member "calls" j) to_int) in
  let* total = req "stage total_ms" Json.(Option.bind (member "total_ms" j) to_float) in
  let* mean =
    req "stage mean_ms_per_binary"
      Json.(Option.bind (member "mean_ms_per_binary" j) to_float)
  in
  Ok { s_name = name; s_calls = calls; s_total_ms = total; s_mean_ms = mean }

let parse_counter j =
  let* name = req "counter name" Json.(Option.bind (member "name" j) to_str) in
  let* value = req "counter value" Json.(Option.bind (member "value" j) to_int) in
  Ok (name, value)

let parse_hist j =
  let* name = req "histogram name" Json.(Option.bind (member "name" j) to_str) in
  let* count = req "histogram count" Json.(Option.bind (member "count" j) to_int) in
  let* sum = req "histogram sum" Json.(Option.bind (member "sum" j) to_int) in
  let* hmin = req "histogram min" Json.(Option.bind (member "min" j) to_int) in
  let* hmax = req "histogram max" Json.(Option.bind (member "max" j) to_int) in
  let* pairs = req "histogram buckets" Json.(Option.bind (member "buckets" j) to_list) in
  let buckets = Array.make Trace.n_buckets 0 in
  let* () =
    List.fold_left
      (fun acc pair ->
        let* () = acc in
        match Json.to_list pair with
        | Some [ bi; bc ] -> (
            match (Json.to_int bi, Json.to_int bc) with
            | Some bi, Some bc when bi >= 0 && bi < Trace.n_buckets ->
                buckets.(bi) <- bc;
                Ok ()
            | _ -> Error "invalid bucket pair")
        | _ -> Error "invalid bucket pair")
      (Ok ()) pairs
  in
  Ok (name, { Trace.count; sum; min = hmin; max = hmax; buckets })

let parse_list what parse = function
  | None -> Ok []
  | Some l ->
      List.fold_left
        (fun acc j ->
          let* items = acc in
          let* item = parse j in
          Ok (item :: items))
        (Ok []) l
      |> Result.map List.rev
      |> Result.map_error (fun e -> what ^ ": " ^ e)

let of_json_string text =
  let* j = Json.parse text in
  let* schema = req "schema" Json.(Option.bind (member "schema" j) to_str) in
  if not (String.length schema >= 20 && String.sub schema 0 20 = "fetch-bench-pipeline")
  then Error (Printf.sprintf "unknown schema %S" schema)
  else
    let* scale = req "scale" Json.(Option.bind (member "scale" j) to_float) in
    let* binaries = req "binaries" Json.(Option.bind (member "binaries" j) to_int) in
    let* domains = req "domains" Json.(Option.bind (member "domains" j) to_int) in
    let host =
      match Json.member "host" j with
      | None -> None
      | Some h -> (
          match
            Json.
              ( Option.bind (member "cores_available" h) to_int,
                Option.bind (member "os_type" h) to_str,
                Option.bind (member "word_size" h) to_int,
                Option.bind (member "ocaml_version" h) to_str )
          with
          | Some cores, Some os_type, Some word_size, Some ocaml_version ->
              Some { cores; os_type; word_size; ocaml_version }
          | _ -> None)
    in
    let* seq_wall_s =
      req "seq_wall_s" Json.(Option.bind (member "seq_wall_s" j) to_float)
    in
    let* par_wall_s =
      req "par_wall_s" Json.(Option.bind (member "par_wall_s" j) to_float)
    in
    let* pipeline_total_ms =
      req "pipeline_total_ms"
        Json.(Option.bind (member "pipeline_total_ms" j) to_float)
    in
    let* stages =
      parse_list "stages" parse_stage Json.(Option.bind (member "stages" j) to_list)
    in
    let* counters =
      parse_list "counters" parse_counter
        Json.(Option.bind (member "counters" j) to_list)
    in
    let* histograms =
      parse_list "histograms" parse_hist
        Json.(Option.bind (member "histograms" j) to_list)
    in
    Ok
      {
        schema;
        scale;
        binaries;
        domains;
        host;
        seq_wall_s;
        par_wall_s;
        pipeline_total_ms;
        stages;
        counters;
        histograms;
      }

(* ---- gate ---- *)

type issue = { what : string; detail : string }

let issue_to_string i = Printf.sprintf "%s: %s" i.what i.detail

let check ?(tolerance = 0.5) ?(min_stage_ms = 0.1) ?(absolute = false) ~baseline
    ~current () =
  let issues = ref [] in
  let push what fmt =
    Printf.ksprintf (fun detail -> issues := { what; detail } :: !issues) fmt
  in
  if baseline.binaries <> current.binaries then
    push "corpus" "binary count differs: baseline %d, current %d (same --scale?)"
      baseline.binaries current.binaries;
  (* detection results: every baseline counter must match exactly *)
  List.iter
    (fun (name, bv) ->
      match List.assoc_opt name current.counters with
      | None -> push "counter" "%s present in baseline but missing now" name
      | Some cv when cv <> bv ->
          push "counter" "%s changed: baseline %d, current %d (detection drift)"
            name bv cv
      | Some _ -> ())
    baseline.counters;
  (* stage means, normalised by overall machine speed unless [absolute] *)
  let stage_mean snap name =
    List.find_map
      (fun st -> if st.s_name = name then Some st.s_mean_ms else None)
      snap.stages
  in
  let factor =
    if absolute then 1.0
    else
      match (stage_mean baseline "pipeline", stage_mean current "pipeline") with
      | Some b, Some c when b > 0.0 && c > 0.0 -> c /. b
      | _ -> 1.0
  in
  List.iter
    (fun bst ->
      if bst.s_mean_ms >= min_stage_ms then
        match stage_mean current bst.s_name with
        | None -> push "stage" "%s present in baseline but missing now" bst.s_name
        | Some cur_mean ->
            let allowed = bst.s_mean_ms *. factor *. (1.0 +. tolerance) in
            if cur_mean > allowed then
              push "stage"
                "%s regressed: %.3f ms/binary vs baseline %.3f (speed-adjusted \
                 limit %.3f, tolerance %g%%)"
                bst.s_name cur_mean bst.s_mean_ms allowed (tolerance *. 100.0))
    baseline.stages;
  List.rev !issues
