(* Correctness checks.  Every answer the benchmark times is judged here,
   against references FETCH did not produce: the synthesizer's ground
   truth, and for the serve daemon the cold answer for the same bytes. *)

module Json = Fetch_util.Json
module Metrics = Fetch_eval.Metrics

(* The [starts] array of a summary or ok response. *)
let starts_of_json s =
  match Json.parse s with
  | Error e -> Error ("unparsable answer: " ^ e)
  | Ok j -> (
      match Option.bind (Json.member "starts" j) Json.to_list with
      | None -> Error "answer has no starts array"
      | Some l -> (
          let ints = List.filter_map Json.to_int l in
          if List.length ints <> List.length l then
            Error "starts holds a non-integer"
          else
            match ints with
            | [] -> Ok []
            | first :: rest ->
                let rec ascending prev = function
                  | [] -> true
                  | x :: xs -> prev < x && ascending x xs
                in
                if ascending first rest then Ok ints
                else Error "starts not strictly ascending"))

(* Judging a start list against the binary's truth.  A false positive
   that is a cold-part start, or a false negative FETCH misses by design
   ([Inputs.binary]), is expected.  Any other error is unexplained: FETCH
   makes a few (a pointer wrongly accepted or rejected, a referenced FDE
   dropped by the Fig. 6b check) — about 1 per 50,000 true starts — so a
   run may have at most 1 per [budget] true starts it judged. *)
let budget = 5_000

type score = {
  mutable tp : int;
  mutable fp : int;
  mutable fn : int;
  mutable n_true : int;
  mutable unexplained : string list;
}

let score () = { tp = 0; fp = 0; fn = 0; n_true = 0; unexplained = [] }

let against_truth sc (b : Inputs.binary) starts =
  let m = Metrics.score b.truth starts in
  let fp = List.length m.fp and fn = List.length m.fn in
  sc.tp <- sc.tp + (m.n_detected - fp);
  sc.fp <- sc.fp + fp;
  sc.fn <- sc.fn + fn;
  sc.n_true <- sc.n_true + m.n_true;
  let outside allowed l = List.filter (fun a -> not (List.mem a allowed)) l in
  List.iter
    (fun a -> sc.unexplained <- Printf.sprintf "%s: %#x is not a function start" b.name a :: sc.unexplained)
    (outside b.may_add m.fp);
  List.iter
    (fun a -> sc.unexplained <- Printf.sprintf "%s: missed the start %#x" b.name a :: sc.unexplained)
    (outside b.may_miss m.fn)

let within_budget sc =
  let n = List.length sc.unexplained in
  if n * budget <= sc.n_true then Ok ()
  else
    Error
      (Printf.sprintf "%d unexplained detection errors over %d true starts (at most 1 per %d), e.g. %s"
         n sc.n_true budget (List.hd sc.unexplained))

let f1 sc =
  let d = (2 * sc.tp) + sc.fp + sc.fn in
  if d = 0 then 1.0 else float_of_int (2 * sc.tp) /. float_of_int d

(* The first answer for each binary is judged against its truth; every
   later one must repeat it byte for byte.  Only a digest of the first
   answer is kept. *)
type judge = { answers : (string, Digest.t) Hashtbl.t; score : score }

let judge () = { answers = Hashtbl.create 256; score = score () }

let judge_answer j (b : Inputs.binary) answer =
  match answer with
  | Error e -> Error (b.name ^ ": " ^ e)
  | Ok json -> (
      match Hashtbl.find_opt j.answers b.name with
      | Some first when first = Digest.string json -> Ok ()
      | Some _ -> Error (b.name ^ ": the answer changed between runs")
      | None ->
          Result.map
            (fun starts ->
              against_truth j.score b starts;
              Hashtbl.replace j.answers b.name (Digest.string json))
            (starts_of_json json))

(* {1 Serve responses} *)

(* A response with its echoed id taken out: ["{\"id\":7,\"status\":…"]
   becomes ["\"status\":…"], so responses to different requests for the
   same bytes compare equal exactly when the daemon answered alike. *)
let body_of_response r =
  let key = ",\"status\":" in
  let kl = String.length key and n = String.length r in
  let rec find i =
    if i + kl > n then r
    else if String.sub r i kl = key then String.sub r (i + 1) (n - i - 1)
    else find (i + 1)
  in
  find 0

let is_ok r =
  let b = body_of_response r in
  String.length b >= 13 && String.sub b 0 13 = "\"status\":\"ok\""

(* A repeat must be byte-identical, id aside, to the cold answer. *)
let repeat ~cold ~warm =
  if body_of_response cold = body_of_response warm then Ok ()
  else Error "a repeated request got a different answer than the cold one"

(* A re-link must detect exactly its base binary's starts. *)
let relink ~base ~relinked =
  match (starts_of_json base, starts_of_json relinked) with
  | Ok a, Ok b when a = b -> Ok ()
  | Ok _, Ok _ -> Error "a re-linked binary got other starts than its base"
  | Error e, _ | _, Error e -> Error e

(* {1 Serve conservation, from outside the engine} *)

type tally = {
  mutable ok : int;
  mutable bad_request : int;
  mutable overloaded : int;
  mutable deadline_exceeded : int;
  mutable analysis_failed : int;
}

let tally () =
  { ok = 0; bad_request = 0; overloaded = 0; deadline_exceeded = 0; analysis_failed = 0 }

let count_response t r =
  if is_ok r then t.ok <- t.ok + 1
  else
    let has s =
      let n = String.length s and m = String.length r in
      let rec go i = i + n <= m && (String.sub r i n = s || go (i + 1)) in
      go 0
    in
    if has "\"bad_request\"" then t.bad_request <- t.bad_request + 1
    else if has "\"overloaded\"" then t.overloaded <- t.overloaded + 1
    else if has "\"deadline_exceeded\"" then
      t.deadline_exceeded <- t.deadline_exceeded + 1
    else t.analysis_failed <- t.analysis_failed + 1

(* The engine's stats must agree with the benchmark's own count:
   [requests] is the number sent and the sum of the outcomes, each
   outcome matches the tally, and every analyze request made exactly one
   result-tier lookup. *)
let conservation ~sent (t : tally) stats =
  let int path =
    let rec walk j = function
      | [] -> Json.to_int j
      | k :: ks -> Option.bind (Json.member k j) (fun j -> walk j ks)
    in
    match Json.parse stats with
    | Error _ -> None
    | Ok j -> walk j path
  in
  let get path = Option.value ~default:(-1) (int path) in
  let requests = get [ "requests" ] in
  let outcomes =
    [
      ("ok", t.ok);
      ("bad_request", t.bad_request);
      ("overloaded", t.overloaded);
      ("deadline_exceeded", t.deadline_exceeded);
      ("analysis_failed", t.analysis_failed);
    ]
  in
  let sum = List.fold_left (fun acc (k, _) -> acc + get [ k ]) 0 outcomes in
  let lookups = get [ "cache"; "hits" ] + get [ "cache"; "misses" ] in
  match List.find_opt (fun (k, v) -> get [ k ] <> v) outcomes with
  | Some (k, v) -> Error (Printf.sprintf "engine counts %d %s, benchmark saw %d" (get [ k ]) k v)
  | None ->
      if requests <> sent then
        Error (Printf.sprintf "engine counts %d requests, benchmark sent %d" requests sent)
      else if sum <> requests then
        Error (Printf.sprintf "outcomes sum to %d, requests are %d" sum requests)
      else if lookups <> sent then
        Error (Printf.sprintf "cache hits + misses = %d, analyze lookups = %d" lookups sent)
      else Ok ()
