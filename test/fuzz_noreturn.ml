(* Deterministic sweep of the noreturn fixpoint against its references.

   Each iteration draws a random synth binary (gcc or llvm, 10–40
   compiler functions, up to 3 data-pointer and 2 code-pointer asm
   functions) and drops none, a quarter, a half or three quarters of its
   FDE seeds, so that §IV-E has to recover the dropped functions through
   extension chains.  It asserts:

     1. [Recursive.run] equals the naive fixpoint
        ([Reference.recursive]): same starts, spans, noreturn and
        conditionally-noreturn facts;
     2. [run] gives the same result with the seeds reversed, rotated or
        repeated;
     3. [run] on all seeds equals [run] on a random prefix of them
        followed by [extend] with the rest, unless a later seed lies
        inside the prefix run's instructions, which [extend] must then
        refuse;
     4. [Xref.detect] equals the from-scratch §IV-E model
        ([Reference.xref]): same final seeds, starts, spans and facts;
     5. the draw's [Loaded.t], its block cache warmed by all of the
        above, answers [run] and [Xref.detect] like a fresh load of the
        same image: same functions field for field, spans, facts and
        seeds;
     6. every dataflow solve behind [Xref.detect]'s result equals the
        per-instruction model ([Reference.solves_agree]): the §IV-E
        verdict and solve at each kept start and pointer candidate, both
        stack-height styles from each kept start, and the lint report
        of the kept starts.

   Runs as part of `dune runtest` and as a CI smoke job.  A failure
   prints the seed, the iteration and the draw, which a tier-1 case in
   test_core.ml can then pin. *)

open Fetch_synth
open Fetch_analysis

let iters = ref 50
let seed = ref 90125

let () =
  let rec parse = function
    | [] -> ()
    | "--iters" :: n :: rest ->
        iters := int_of_string n;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | a :: _ ->
        Printf.eprintf "usage: fuzz_noreturn [--iters N] [--seed N] (got %S)\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let () =
  let rng = Fetch_util.Prng.create !seed in
  let failures = ref 0 in
  for i = 1 to !iters do
    let range = Fetch_util.Prng.range rng in
    let draw = range 0 1_000_000 in
    let compiler =
      if Fetch_util.Prng.bool rng then Profile.Synthgcc else Profile.Synthllvm
    in
    let n_funcs = range 10 40 in
    let pointer = range 0 3 in
    let code_ptr = range 0 2 in
    let drop = range 0 3 in
    let split = range 0 1000 in
    let desc =
      Printf.sprintf "seed=%d %s n=%d ptr=%d codeptr=%d drop=%d" draw
        (Profile.compiler_name compiler) n_funcs pointer code_ptr drop
    in
    let loaded, seeds =
      Reference.draw ~seed:draw compiler ~n_funcs ~pointer ~code_ptr ~drop
    in
    let fail what =
      incr failures;
      Printf.printf "FAIL iter %d (%s): %s\n%!" i desc what
    in
    let res = Recursive.run loaded ~seeds in
    if Reference.signature res <> Reference.signature (Reference.recursive loaded ~seeds)
    then fail "run <> reference fixpoint";
    if not (Reference.order_free loaded ~seeds) then fail "seed order changes run";
    let k = split * (List.length seeds + 1) / 1001 in
    (match Reference.run_then_extend loaded ~seeds k with
    | Ok _ -> ()
    | Error what -> fail what);
    let res_i, seeds_i, _ = Fetch_core.Xref.detect loaded ~seeds in
    let res_r, seeds_r, _ = Reference.xref loaded ~seeds in
    if seeds_i <> seeds_r || Reference.signature res_i <> Reference.signature res_r
    then fail "xref incremental <> reference";
    if not (Reference.warm_like_fresh loaded ~seeds) then fail "warm Loaded <> fresh";
    let starts = Recursive.starts res_i and refs = Fetch_core.Refs.collect loaded res_i in
    match
      Reference.solves_agree loaded res_i ~starts
        ~cands:(Fetch_core.Refs.pointer_candidates refs)
        (Fetch_core.Lint.view loaded res_i ~starts ~refs)
    with
    | Ok () -> ()
    | Error e -> fail ("block solves <> model: " ^ e)
  done;
  if !failures > 0 then begin
    Printf.printf "fuzz_noreturn: %d FAILURES (seed %d, %d iters)\n" !failures
      !seed !iters;
    exit 1
  end
  else Printf.printf "fuzz_noreturn: OK — %d iterations, seed %d\n" !iters !seed
