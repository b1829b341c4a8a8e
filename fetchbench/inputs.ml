(* Workload inputs, generated from the run's seed.  Only [raw] — the ELF
   bytes — ever reaches the program under test; [truth] and [may_miss] /
   [may_add] come from the synthesizer's own program and manifest and
   are used only to judge the answers. *)

open Fetch_synth
module Prng = Fetch_util.Prng
module Corpus = Fetch_eval.Corpus

type binary = {
  name : string;
  raw : string;  (** stripped ELF bytes *)
  truth : Truth.t;
  may_miss : int list;
      (** true starts FETCH does not find by design: functions without
          an FDE that nothing points at (tail-only or unreachable); FDE
          functions that are tail-call targets, which Algorithm 1 may
          merge into their caller; and FDE functions nothing references,
          which the Fig. 6b check drops when their entry breaks the
          calling convention *)
  may_add : int list;
      (** starts of secondary (cold) parts: an FDE claims them, and
          Algorithm 1 keeps one when it cannot prove the jump a tail
          call *)
}

let rec tail_targets acc (stmts : Ir.stmt list) =
  List.fold_left
    (fun acc (s : Ir.stmt) ->
      match s with
      | Ir.Tail_call f -> f :: acc
      | If (a, b) | Try (a, b) -> tail_targets (tail_targets acc a) b
      | Loop (_, body) | Cold_jump body -> tail_targets acc body
      | Switch (_, cases) -> Array.fold_left tail_targets acc cases
      | Compute _ | Call _ | Call_pointer _ | Call_reg_pointer _ | Store _
      | Call_noreturn _ | Call_error _ | Return ->
          acc)
    acc stmts

let rec calls_error (stmts : Ir.stmt list) =
  List.exists
    (fun (s : Ir.stmt) ->
      match s with
      | Ir.Call_error _ -> true
      | If (a, b) | Try (a, b) -> calls_error a || calls_error b
      | Loop (_, body) | Cold_jump body -> calls_error body
      | Switch (_, cases) -> Array.exists calls_error cases
      | _ -> false)
    stmts

let of_built ~name (built : Link.built) =
  let funcs = built.program.funcs in
  let tail_called =
    List.fold_left (fun acc (f : Ir.func) -> tail_targets acc f.body) [] funcs
  in
  let referenced =
    List.map snd built.program.pointer_inits
    @ List.concat_map (fun (f : Ir.func) -> Ir.callees f.body) funcs
    @
    if List.exists (fun (f : Ir.func) -> calls_error f.body) funcs then
      [ "error_like" ]
    else []
  in
  let may_miss =
    List.filter_map
      (fun (f : Truth.fn_truth) ->
        let by_design =
          if f.has_fde then
            List.mem f.name tail_called || not (List.mem f.name referenced)
          else f.tail_only || f.unreachable
        in
        if by_design then Some f.start else None)
      built.truth.fns
  in
  {
    name;
    raw = built.raw;
    truth = built.truth;
    may_miss;
    may_add = Truth.part_starts built.truth;
  }

let compilers = [ Profile.Synthgcc; Profile.Synthllvm ]

let profiles =
  List.concat_map
    (fun c -> List.map (fun o -> Profile.make c o) Profile.all_opts)
    compilers

let build ~name ~seed profile spec =
  let rng = Prng.create seed in
  let program = Gen.program rng profile (spec rng) in
  of_built ~name (Link.build ~profile ~rng program)

(* The projects that carry the corpus's three Fig. 6b hand-broken FDEs,
   each on its gcc -O2 build (as in [Fetch_eval.Corpus]). *)
let broken_fde_projects = [ "Glibc-2.27"; "Openssl-1.1.0l"; "Nginx-1.15.0" ]

(* The Table II mix as a grid: [copies] draws of every project x compiler
   x optimization level, each a fresh program with that project's
   assembly mix.  Function counts are stratified: copy [c] draws from
   the [c]-th of [copies] equal slices of the project's range, so the
   corpus's size, and its largest binaries, vary little from seed to
   seed.  Only the first draw of the three broken-FDE projects' gcc -O2
   cell carries a broken FDE, so the corpus has three, as the paper's
   does. *)
let corpus_batch ~seed ~copies =
  List.concat_map
    (fun copy ->
      List.concat_map
        (fun (p : Corpus.project) ->
          List.map
            (fun (profile : Profile.t) ->
              let spec rng =
                let lo, hi = p.funcs in
                let slice = float_of_int (hi - lo + 1) /. float_of_int copies in
                let base =
                  {
                    Gen.default_spec with
                    n_funcs =
                      lo + int_of_float (slice *. (float_of_int copy +. Prng.float rng));
                    cxx =
                      (match p.lang with
                      | Corpus.Cxx -> true
                      | Corpus.Mixed -> Prng.bool rng
                      | Corpus.C -> false);
                    strip = true;
                  }
                in
                let spec = p.asm base in
                if
                  copy = 0
                  && List.mem p.pname broken_fde_projects
                  && profile.compiler = Profile.Synthgcc
                  && profile.opt = Profile.O2
                then { spec with Gen.n_broken_fde = 1 }
                else spec
              in
              let name =
                Printf.sprintf "%s/%d-%s" p.pname copy (Profile.name profile)
              in
              build ~name ~seed:(Hashtbl.hash (seed, name)) profile spec)
            profiles)
        Corpus.projects)
    (List.init copies Fun.id)

(* glibc/OpenSSL pushed to where section IV-E dominates: about as many
   hand-written functions without FDEs as compiler functions, most of
   them reachable only through data pointers or code constants, plus
   two Fig. 6b broken FDEs so every binary takes the reseed path. *)
let pointer_heavy_spec rng =
  {
    Gen.default_spec with
    n_funcs = 40;
    n_asm_called = 4;
    n_asm_tailonly = 3;
    n_asm_pointer = 20 + Prng.range rng 0 2;
    n_asm_code_ptr = 14 + Prng.range rng 0 2;
    n_asm_unreachable = 2;
    n_broken_fde = 2;
    strip = true;
  }

let pointer_heavy ~seed ~n =
  List.init n (fun i ->
      let profile = List.nth profiles (i mod List.length profiles) in
      let name = Printf.sprintf "pointer-heavy/%d-%s" i (Profile.name profile) in
      build ~name ~seed:(Hashtbl.hash (seed, name)) profile pointer_heavy_spec)

(* Mid-sized service traffic: 20-30 KB request lines once base64'd,
   45 to 70 functions.  The counts are stratified like the corpus's: the
   [i]-th binary draws from the [i mod 13]-th of 13 slices of the
   range (two counts each), so every 13 binaries cover it evenly. *)
let serve_spec i rng =
  { Gen.default_spec with n_funcs = 45 + (2 * (i mod 13)) + Prng.range rng 0 1; strip = true }

let serve_binary ~seed i =
  let profile = List.nth profiles (i mod List.length profiles) in
  let name = Printf.sprintf "serve/%d-%s" i (Profile.name profile) in
  build ~name ~seed:(Hashtbl.hash (seed, name)) profile (serve_spec i)

(* A re-link of [b]: the same allocated sections (so the same [.eh_frame]
   bytes at the same address, hence the same detected starts) plus a
   non-allocated note that changes the file's bytes. *)
let relink (b : binary) ~tag =
  match Fetch_elf.Decode.decode b.raw with
  | Error e -> invalid_arg ("relink: " ^ e)
  | Ok img ->
      let note =
        {
          Fetch_elf.Image.sec_name = ".note.relink";
          kind = Fetch_elf.Image.Progbits;
          flags = 0;
          addr = 0;
          data = Printf.sprintf "build-id:%s:%d" b.name tag;
          addralign = 1;
          entsize = 0;
        }
      in
      {
        b with
        name = Printf.sprintf "%s+relink%d" b.name tag;
        raw =
          Fetch_elf.Encode.encode
            { img with Fetch_elf.Image.sections = img.sections @ [ note ] };
      }

(* {1 Serve traffic} *)

type kind =
  | Fresh  (** bytes not sent before: a result-tier miss *)
  | Relink of int  (** a re-link of request [i]'s binary: an eh-tier hit *)
  | Repeat of int  (** the exact bytes of request [i]: a result-tier hit *)

type request = { kind : kind; bin : binary; line : string }

let request_line ~id (b : binary) =
  Printf.sprintf "{\"op\":\"analyze\",\"id\":%d,\"bytes_b64\":\"%s\"}" id
    (Fetch_util.B64.encode b.raw)

(* [n] requests of a synthetic stress mix, not a measured trace: 30%
   fresh binaries ([fresh k] builds the k-th), 20% re-links of a recent
   fresh binary and 50% exact repeats of a recent request.  "Recent" is
   the last [recent] distinct requests, so that repeats and re-links
   mostly find their entry cached while the cache, smaller than the
   working set, evicts older ones.  The first request is fresh. *)
let serve_stream ~seed ~fresh:build_fresh ~n ~recent =
  let rng = Prng.create (Hashtbl.hash (seed, "serve-stream")) in
  let out = Array.make n None in
  let next_fresh = ref 0 in
  let fresh = ref [] (* indices of fresh requests, newest first *)
  and distinct = ref [] (* indices of fresh and relink requests *) in
  let pick l = List.nth l (Prng.int rng (min recent (List.length l))) in
  for i = 0 to n - 1 do
    let roll = if i = 0 then 0.0 else Prng.float rng in
    let kind, bin =
      if roll < 0.30 then begin
        let b = build_fresh !next_fresh in
        incr next_fresh;
        fresh := i :: !fresh;
        (Fresh, b)
      end
      else if roll < 0.50 then begin
        let base = pick !fresh in
        let b = (Option.get out.(base)).bin in
        (Relink base, relink b ~tag:i)
      end
      else
        let src = pick !distinct in
        (Repeat src, (Option.get out.(src)).bin)
    in
    (match kind with Repeat _ -> () | _ -> distinct := i :: !distinct);
    out.(i) <- Some { kind; bin; line = request_line ~id:i bin }
  done;
  Array.map Option.get out
