(* The host's speed, from a fixed reference pass that the benchmark
   interleaves with the program's work.

   The benchmark runs on a few cores of a shared host whose speed drifts
   by up to 40% within minutes, with next to no steal time to show for
   it, so two runs of the same code differ by more than any useful
   bound.  The pass is the benchmark's own code, not the program's: a
   kernel that decodes bytes through a table, counts targets in a hash
   table and sorts what it found, then a burst of short-lived
   allocation.  That is the analysis's mix of branches, table lookups
   and allocation, so the pass slows down with the host about as the
   analysis does (a pass that also chased pointers through 4 MiB slowed
   down more than the analysis when the host did).  A run times one
   pass after each operation it measures and scales its times by
   [nominal_ns] over the passes' median: they read as on a host that
   runs a pass in [nominal_ns].  A slower program still reads slower; a
   slower host reads about the same. *)

module Clock = Fetch_obs.Clock

(* A round figure near the median pass on the 2-vCPU Xeon VM the
   benchmark was written on (OCaml 5.1.1).  It only sets the scale the
   times are reported in. *)
let nominal_ns = 400_000.0

let code =
  lazy
    (String.init 8192 (fun i ->
         let x = (i * 2654435761) lxor (i lsr 5) in
         Char.chr ((x lxor (x lsr 13)) land 0xff)))

(* Walk [code] as variable-length records, count each record's target in
   a hash table, and sort the distinct targets. *)
let kernel () =
  let s = Lazy.force code in
  let n = String.length s in
  let counts = Hashtbl.create 1024 in
  let found = ref [] and pc = ref 0 and sum = ref 0 in
  while !pc < n do
    let b = Char.code (String.unsafe_get s !pc) in
    let target = ((!pc * 31) + (b * 977)) land 8191 in
    (match Hashtbl.find_opt counts target with
    | Some c -> Hashtbl.replace counts target (c + 1)
    | None ->
        Hashtbl.add counts target 1;
        found := target :: !found);
    sum := !sum + b;
    pc := !pc + 1 + (b land 7)
  done;
  List.length (List.sort compare !found) + !sum + Hashtbl.length counts

(* Build a list of [churn_pairs] pairs and fold over it: about 400 KiB
   of short-lived blocks, which runs the minor heap through the cache
   and now and then promotes a live list, as the analysis's allocation
   does. *)
let churn_pairs = 8_000

let churn () =
  let l = List.init churn_pairs (fun i -> (i, i lxor 0x55)) in
  List.fold_left (fun acc (a, b) -> acc + a + b) 0 l

(* One pass: the kernel, then the churn; returns its time in ns. *)
let pass () =
  ignore (Sys.opaque_identity (Lazy.force code));
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  ignore (Sys.opaque_identity (churn ()));
  Int64.to_float (Clock.elapsed_ns t0)

(* The passes of one run: when each started, and its time in ns. *)
type t = { mutable samples : (int64 * float) list (* newest first *) }

let create () = { samples = [] }

let sample t =
  let at = Clock.now_ns () in
  t.samples <- (at, pass ()) :: t.samples

let passes t = List.length t.samples

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.((Array.length a - 1) / 2)

let median_ns t = match t.samples with [] -> nominal_ns | l -> median_of (List.map snd l)

(* What a time measured during the run reads at the nominal speed. *)
let factor t = nominal_ns /. median_ns t

(* The host's speed drifts within a run too, so [local t] scales a time
   measured at [at] by the passes of the same second of the run, or by
   the whole run's when that second has fewer than [min_bucket]. *)
let min_bucket = 8

let local t =
  let run = factor t in
  let t0 = List.fold_left (fun m (at, _) -> min m at) Int64.max_int t.samples in
  let second at = Int64.to_int (Int64.div (Int64.sub at t0) 1_000_000_000L) in
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun (at, ns) ->
      let k = second at in
      Hashtbl.replace buckets k (ns :: Option.value ~default:[] (Hashtbl.find_opt buckets k)))
    t.samples;
  let factors = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k l -> if List.length l >= min_bucket then Hashtbl.replace factors k (nominal_ns /. median_of l))
    buckets;
  fun at -> Option.value ~default:run (Hashtbl.find_opt factors (max 0 (second at)))

