(* Tests of the benchmark's own logic: self time, and the correctness
   checks failing on tampered answers. *)

open Fetchbench
module Trace = Fetch_obs.Trace
module Engine = Fetch_serve.Engine

let span ?(run = 1) name depth start dur =
  { Trace.name; depth; start_ns = Int64.of_int start; dur_ns = Int64.of_int dur; run; args = [] }

(* a(0..100) > b(10..40) > c(15..25), a > d(50..90); e(100..110) *)
let tree =
  [ span "a" 0 0 100; span "b" 1 10 30; span "c" 2 15 10; span "d" 1 50 40; span "e" 0 100 10 ]

let test_self_times () =
  let self = List.map (fun ((s : Trace.span), ns) -> (s.name, Int64.to_int ns)) (Selftime.self_times tree) in
  Alcotest.(check (list (pair string int)))
    "self = duration minus direct children"
    [ ("a", 30); ("b", 20); ("c", 10); ("d", 40); ("e", 10) ]
    self;
  let total = List.fold_left (fun acc (_, ns) -> acc + ns) 0 self in
  Alcotest.(check int) "self times sum to the top-level spans" 110
    (Int64.to_int (Selftime.top_level_ns tree));
  Alcotest.(check int) "and count every ns once" 110 total

let test_inclusive_counts_outermost () =
  (* a name nested under itself counts once inclusively *)
  let t = Selftime.create () in
  Selftime.add t [ span "r" 0 0 100; span "r" 1 10 50; span "x" 0 100 5 ];
  let r = Selftime.get t "r" in
  Alcotest.(check int) "calls" 2 r.calls;
  Alcotest.(check int) "inclusive" 100 (Int64.to_int r.incl_ns);
  Alcotest.(check int) "self" 100 (Int64.to_int r.self_ns)

(* The self-time tolerance the benchmark states: top-level self times
   cover the traced op's wall time to within 2%. *)
let tolerance = 0.02

let binaries = lazy (List.init 4 (Inputs.serve_binary ~seed:7))

let test_self_time_covers_wall () =
  let wall = ref 0L and self = ref 0L in
  List.iter
    (fun (b : Inputs.binary) ->
      match Chain.traced b.raw with
      | Error e -> Alcotest.fail e
      | Ok r ->
          wall := Int64.add !wall r.wall_ns;
          List.iter (fun (_, ns) -> self := Int64.add !self ns) (Selftime.self_times r.report.spans))
    (Lazy.force binaries);
  let gap = Int64.to_float (Int64.sub !wall !self) /. Int64.to_float !wall in
  if gap < 0.0 || gap > tolerance then
    Alcotest.failf "self times cover %.4f of the op wall, outside the %.0f%% tolerance" (1.0 -. gap)
      (100.0 *. tolerance)

(* Scaling by the reference passes: each second of a run by its own
   passes, a second with too few by the whole run's. *)
let test_speed_scaling () =
  let s = 1_000_000_000 and nominal = Speed.nominal_ns in
  let t = Speed.create () in
  let add second ns n =
    for k = 1 to n do
      t.samples <- (Int64.of_int ((second * s) + k), ns) :: t.samples
    done
  in
  add 0 (2.0 *. nominal) 10;
  add 1 nominal 14;
  add 2 (4.0 *. nominal) 3;
  let close = Alcotest.float 1e-9 in
  Alcotest.check close "the run's factor is nominal over the median pass" 1.0 (Speed.factor t);
  let local = Speed.local t in
  Alcotest.check close "a slow second" 0.5 (local (Int64.of_int (s / 2)));
  Alcotest.check close "a fast second" 1.0 (local (Int64.of_int ((3 * s) / 2)));
  Alcotest.check close "a second with too few passes" 1.0 (local (Int64.of_int ((5 * s) / 2)))

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let k = find 0 in
  String.sub s 0 k ^ by ^ String.sub s (k + n) (String.length s - k - n)

let judged answers =
  let j = Check.judge () in
  let verdicts = List.map2 (fun b a -> Check.judge_answer j b a) (Lazy.force binaries) answers in
  (verdicts, Check.within_budget j.score)

let test_truth_check () =
  let answers = List.map (fun (b : Inputs.binary) -> Chain.run b.raw) (Lazy.force binaries) in
  let verdicts, budget = judged answers in
  List.iter (fun v -> Alcotest.(check (result unit string)) "answer" (Ok ()) v) verdicts;
  Alcotest.(check (result unit string)) "within budget" (Ok ()) budget;
  (* shift one start of the first answer by a byte *)
  let tampered =
    match answers with
    | Ok json :: rest ->
        let s = List.nth (Result.get_ok (Check.starts_of_json json)) 3 in
        Ok (replace_first ~sub:(Printf.sprintf ",%d," s) ~by:(Printf.sprintf ",%d," (s + 1)) json) :: rest
    | _ -> Alcotest.fail "no answer"
  in
  match judged tampered with
  | _, Ok () -> Alcotest.fail "a shifted start passed the truth check"
  | _, Error _ -> ()

let test_answer_must_repeat () =
  let j = Check.judge () in
  let b = List.hd (Lazy.force binaries) in
  let a = Chain.run b.raw in
  Alcotest.(check (result unit string)) "first" (Ok ()) (Check.judge_answer j b a);
  let changed = Result.map (fun s -> s ^ " ") a in
  match Check.judge_answer j b changed with
  | Ok () -> Alcotest.fail "a changed answer passed"
  | Error _ -> ()

(* A short serve session: one cold request, its repeat and a re-link. *)
let session () =
  let b = List.hd (Lazy.force binaries) in
  let relinked = Inputs.relink b ~tag:1 in
  let e = Engine.create ~config:{ Engine.default_config with domains = 1 } () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) @@ fun () ->
  let lines = [ Inputs.request_line ~id:0 b; Inputs.request_line ~id:1 b; Inputs.request_line ~id:2 relinked ] in
  let responses =
    List.concat_map (fun l -> Engine.submit_line e l; Engine.flush e) lines
  in
  (responses, Engine.stats_json e)

let tamper r =
  (* bump the last digit of the first start *)
  let k = String.index r '[' + 1 in
  let rec last_digit i = match r.[i + 1] with '0' .. '9' -> last_digit (i + 1) | _ -> i in
  let i = last_digit k in
  let d = Char.chr (((Char.code r.[i] - 48 + 1) mod 10) + 48) in
  String.mapi (fun j c -> if j = i then d else c) r

let test_serve_checks () =
  match session () with
  | [ cold; warm; relinked ], stats ->
      Alcotest.(check (result unit string)) "repeat" (Ok ()) (Check.repeat ~cold ~warm);
      Alcotest.(check (result unit string)) "relink" (Ok ()) (Check.relink ~base:cold ~relinked);
      (match Check.repeat ~cold ~warm:(tamper warm) with
      | Ok () -> Alcotest.fail "a tampered repeat passed"
      | Error _ -> ());
      (match Check.relink ~base:cold ~relinked:(tamper relinked) with
      | Ok () -> Alcotest.fail "a tampered re-link passed"
      | Error _ -> ());
      let tally = Check.tally () in
      List.iter (Check.count_response tally) [ cold; warm; relinked ];
      Alcotest.(check (result unit string)) "conservation" (Ok ()) (Check.conservation ~sent:3 tally stats);
      tally.ok <- tally.ok - 1;
      tally.analysis_failed <- tally.analysis_failed + 1;
      (match Check.conservation ~sent:3 tally stats with
      | Ok () -> Alcotest.fail "a wrong tally passed"
      | Error _ -> ())
  | _ -> Alcotest.fail "expected three responses"

let () =
  Alcotest.run "fetchbench"
    [
      ( "selftime",
        [
          Alcotest.test_case "self times of a span tree" `Quick test_self_times;
          Alcotest.test_case "inclusive time counts outermost spans" `Quick test_inclusive_counts_outermost;
          Alcotest.test_case "top-level self times cover the op wall" `Quick test_self_time_covers_wall;
        ] );
      ("speed", [ Alcotest.test_case "times scale by the passes of their second" `Quick test_speed_scaling ]);
      ( "check",
        [
          Alcotest.test_case "truth check fails on a shifted start" `Quick test_truth_check;
          Alcotest.test_case "a changed answer fails" `Quick test_answer_must_repeat;
          Alcotest.test_case "serve checks fail on tampered responses" `Quick test_serve_checks;
        ] );
    ]
