(* The adversarial scenario corpus: differential validation of every
   scenario's synth output against its ground truth, the per-scenario
   robustness harness (F1 deltas vs the clean control), and the profile
   invariant the scenarios rely on.

   The differential tests are the contract that keeps scoring exact: a
   scenario may perturb layout and unwind sections however it likes, but
   every truth part must still decode to its exact boundary, pools must
   stay disjoint from functions, and every FDE must anchor to a truth
   address. *)

open Fetch_synth

let check = Alcotest.check

let scenario id = Option.get (Adversary.find id)

(* One binary per scenario, shared across tests. *)
let built_tbl : (string, Link.built Lazy.t) Hashtbl.t = Hashtbl.create 8

let () =
  List.iter
    (fun (sc : Adversary.t) ->
      Hashtbl.replace built_tbl sc.id
        (lazy (Adversary.build sc ~seed:2026)))
    Adversary.all

let built id = Lazy.force (Hashtbl.find built_tbl id)

(* ---- the catalog itself ---- *)

let test_catalog () =
  let ids = Adversary.ids () in
  check Alcotest.int "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  check Alcotest.string "clean is the control" "clean" (List.hd ids);
  List.iter
    (fun (sc : Adversary.t) ->
      (match Profile.check sc.profile with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: profile invariant: %s" sc.id e);
      if sc.fetch_floor <= 0.0 || sc.fetch_floor > 1.0 then
        Alcotest.failf "%s: floor %g outside (0,1]" sc.id sc.fetch_floor)
    Adversary.all

(* ---- differential: every scenario's bytes vs its truth ---- *)

(* Every part of every function decodes as a clean instruction stream
   ending exactly on the part boundary — post-link transforms never touch
   .text, so this must hold for all scenarios. *)
let assert_parts_decode id (b : Link.built) =
  let text = Option.get (Fetch_elf.Image.section b.image ".text") in
  List.iter
    (fun (f : Truth.fn_truth) ->
      List.iter
        (fun (lo, size) ->
          let rec walk addr =
            if addr < lo + size then begin
              let pos = addr - text.addr in
              match Fetch_x86.Decode.decode ~pos ~addr text.data with
              | Some (_, len) -> walk (addr + len)
              | None -> Alcotest.failf "%s/%s: bad insn at %#x" id f.name addr
            end
          in
          walk lo)
        f.parts)
    b.truth.fns

(* Function parts and pools tile .text without overlap; pools never claim
   function bytes. *)
let assert_layout_disjoint id (b : Link.built) =
  let claimed = ref [] in
  let claim what lo size =
    if lo < b.truth.text_lo || lo + size > b.truth.text_hi then
      Alcotest.failf "%s: %s outside text" id what;
    if size <= 0 then Alcotest.failf "%s: %s empty" id what;
    let hi = lo + size in
    if List.exists (fun (l, h) -> lo < h && l < hi) !claimed then
      Alcotest.failf "%s: %s overlaps" id what;
    claimed := (lo, hi) :: !claimed
  in
  List.iter
    (fun (f : Truth.fn_truth) ->
      List.iter (fun (lo, size) -> claim f.name lo size) f.parts)
    b.truth.fns;
  List.iteri
    (fun i (lo, size) ->
      check Alcotest.bool (Printf.sprintf "%s pool %d non-empty" id i) true
        (size > 0);
      claim (Printf.sprintf "pool%d" i) lo size)
    b.truth.pools

(* .eh_frame decodes without skips and every FDE anchors to a truth
   address (start, cold part, or a broken FDE's pre-entry bytes). *)
let assert_fdes_anchor id (b : Link.built) =
  let eh = Fetch_dwarf.Eh_frame.of_image b.image in
  check Alcotest.int (id ^ " eh_frame skips") 0 eh.records_skipped;
  if eh.records_ok = 0 then Alcotest.failf "%s: empty .eh_frame" id;
  let starts = Truth.start_set b.truth in
  let parts = Truth.part_starts b.truth in
  List.iter
    (fun (fde : Fetch_dwarf.Eh_frame.fde) ->
      let ok =
        Hashtbl.mem starts fde.pc_begin
        || List.mem fde.pc_begin parts
        || List.exists
             (fun (f : Truth.fn_truth) ->
               f.has_fde && f.start - fde.pc_begin = 3)
             b.truth.fns
      in
      if not ok then Alcotest.failf "%s: stray FDE at %#x" id fde.pc_begin)
    (Fetch_dwarf.Eh_frame.all_fdes eh.cies)

let test_scenario_differential id () =
  let b = built id in
  (match Fetch_elf.Decode.decode b.raw with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: ELF round-trip: %s" id e);
  assert_parts_decode id b;
  assert_layout_disjoint id b;
  assert_fdes_anchor id b

(* ---- scenario-specific section shapes ---- *)

let contains ~needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let pool_bytes (b : Link.built) =
  let text = Option.get (Fetch_elf.Image.section b.image ".text") in
  List.map
    (fun (lo, size) -> String.sub text.data (lo - text.addr) size)
    b.truth.pools

let test_padding_shapes () =
  let b = built "padding-junk" in
  check Alcotest.bool "many pools" true (List.length b.truth.pools > 20);
  check Alcotest.bool "pools carry forged push-rbp prologues" true
    (List.exists (contains ~needle:"\x55\x48\x89\xe5") (pool_bytes b));
  let clean = built "clean" in
  let bytes l = List.fold_left (fun a (_, s) -> a + s) 0 l in
  check Alcotest.bool "pool bytes scaled up" true
    (bytes b.truth.pools > 4 * max 1 (bytes clean.truth.pools));
  let tables = built "padding-tables" in
  check Alcotest.bool "table pools present" true
    (List.exists (fun (_, s) -> s >= 16 && s mod 4 = 0) tables.truth.pools)

let test_cet_shapes () =
  let b = built "cet-endbr" in
  check Alcotest.bool "pools carry endbr64 decoys" true
    (List.exists (contains ~needle:"\xf3\x0f\x1e\xfa\x55") (pool_bytes b))

let test_cfi_broken_shapes () =
  let b = built "cfi-broken" in
  let broken =
    List.length (List.filter (fun (f : Ir.func) -> f.broken_fde) b.program.funcs)
  in
  check Alcotest.int "ten lying FDEs" 10 broken;
  (* every hidden entry stays reachable through a data pointer, so SIV-E
     validation can re-derive what the rejected FDE start loses *)
  List.iter
    (fun (f : Ir.func) ->
      if f.broken_fde then
        check Alcotest.bool (f.name ^ " pointer-referenced") true
          (List.exists (fun (_, n) -> n = f.name) b.program.pointer_inits))
    b.program.funcs

let test_dwarf64_shapes () =
  let b = built "dwarf64" in
  let eh = Option.get (Fetch_elf.Image.section b.image ".eh_frame") in
  check Alcotest.bool "64-bit marker leads the section" true
    (String.length eh.data >= 4 && String.sub eh.data 0 4 = "\xff\xff\xff\xff")

let test_no_hdr_shapes () =
  let b = built "no-eh-frame-hdr" in
  check Alcotest.bool ".eh_frame_hdr absent" false
    (Fetch_elf.Image.has_section b.image ".eh_frame_hdr");
  check Alcotest.bool ".eh_frame kept" true
    (Fetch_elf.Image.has_section b.image ".eh_frame")

let test_overlap_shapes () =
  let b = built "fde-overlap" in
  let fdes =
    Fetch_dwarf.Eh_frame.all_fdes (Fetch_dwarf.Eh_frame.of_image b.image).cies
  in
  let clean_fdes =
    let c = built "clean" in
    Fetch_dwarf.Eh_frame.all_fdes (Fetch_dwarf.Eh_frame.of_image c.image).cies
  in
  check Alcotest.bool "duplicated FDEs" true
    (List.length fdes > List.length clean_fdes);
  let sorted =
    List.sort compare
      (List.map
         (fun (f : Fetch_dwarf.Eh_frame.fde) -> (f.pc_begin, f.pc_range))
         fdes)
  in
  let rec overlapping = function
    | (b1, r1) :: ((b2, _) :: _ as rest) ->
        (b1 + r1 > b2 && b1 <> b2) || b1 = b2 || overlapping rest
    | _ -> false
  in
  check Alcotest.bool "ranges overlap" true (overlapping sorted)

(* [Loaded.fde_starting_at] answers for every FDE, including the
   overlapping and lying ones the height oracle drops: it must agree with
   the list definition it replaced at every FDE start and its neighbours. *)
let test_fde_starting_at () =
  List.iter
    (fun id ->
      let loaded = Fetch_analysis.Loaded.load (built id).image in
      let by_list addr =
        List.exists
          (fun (f : Fetch_dwarf.Eh_frame.fde) -> f.pc_begin = addr)
          loaded.fdes
      in
      check Alcotest.bool (id ^ ": has FDEs") true (loaded.fdes <> []);
      List.iter
        (fun (f : Fetch_dwarf.Eh_frame.fde) ->
          List.iter
            (fun a ->
              check Alcotest.bool
                (Printf.sprintf "%s: fde_starting_at %#x" id a)
                (by_list a)
                (Fetch_analysis.Loaded.fde_starting_at loaded a))
            [ f.pc_begin - 1; f.pc_begin; f.pc_begin + 1 ])
        loaded.fdes)
    [ "fde-overlap"; "cfi-broken" ]

(* ---- the pipeline on adversarial binaries ---- *)

(* FETCH must never report a start inside a pool (pools are unreferenced
   non-code) and must keep finding the functions around them. *)
let test_fetch_on_scenarios () =
  List.iter
    (fun id ->
      let b = built id in
      let stripped = Fetch_elf.Image.strip b.image in
      let r = Fetch_core.Pipeline.run stripped in
      List.iter
        (fun s ->
          if
            List.exists
              (fun (lo, size) -> s >= lo && s < lo + size)
              b.truth.pools
          then Alcotest.failf "%s: FETCH start %#x inside a pool" id s)
        r.starts;
      let m = Fetch_eval.Metrics.score b.truth r.starts in
      let recall =
        float_of_int (m.n_true - List.length m.fn) /. float_of_int m.n_true
      in
      if recall < 0.8 then
        Alcotest.failf "%s: FETCH recall %.2f below sanity bound" id recall)
    (Adversary.ids ())

(* ---- the harness: deltas, floors, JSONL ---- *)

let pattern_tools =
  [ "DYNINST"; "BAP"; "RADARE2"; "NUCLEUS"; "IDA Pro"; "BINARY NINJA" ]

let test_harness_deltas () =
  let stressed = [ "padding-junk"; "padding-tables"; "cfi-broken" ] in
  let t = Fetch_eval.Exp_adversarial.run ~scale:0.5 ~only:stressed () in
  (* the paper's robustness claim, quantified: on padding and
     hand-written-CFI corpora FETCH's F1 drop is strictly smaller than
     every pattern-based baseline's *)
  List.iter
    (fun id ->
      let delta tool =
        match Fetch_eval.Exp_adversarial.find_row t ~scenario:id ~tool with
        | Some { delta_f1 = Some d; _ } -> d
        | _ -> Alcotest.failf "missing row %s/%s" id tool
      in
      let fetch = delta "FETCH" in
      List.iter
        (fun tool ->
          if fetch >= delta tool then
            Alcotest.failf "%s: FETCH drop %.4f not below %s drop %.4f" id
              fetch tool (delta tool))
        pattern_tools)
    stressed;
  check
    (Alcotest.list (Alcotest.triple Alcotest.string (Alcotest.float 0.0) (Alcotest.float 0.0)))
    "no floor failures" []
    (Fetch_eval.Exp_adversarial.floor_failures t);
  (* JSONL rows parse and carry the fields the CI artifact promises *)
  let module Json = Fetch_util.Json in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "JSONL: %s in %s" e line
      | Ok j ->
          let has k = Json.member k j <> None in
          check Alcotest.bool ("row has scenario/tool/f1: " ^ line) true
            (has "scenario" && has "tool" && has "f1" && has "fp" && has "fn"))
    (String.split_on_char '\n' (Fetch_eval.Exp_adversarial.json_lines t)
    |> List.filter (fun l -> l <> ""))

(* ---- profile invariants (the knobs scenarios turn) ---- *)

let test_make_invariant () =
  List.iter
    (fun compiler ->
      List.iter
        (fun opt ->
          match Profile.check (Profile.make compiler opt) with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        Profile.all_opts)
    [ Profile.Synthgcc; Profile.Synthllvm ]

(* Random perturbations of a valid profile — including NaN, out-of-range
   probabilities, non-power-of-two alignments and non-positive scales —
   are always repaired by clamp, and clamp never changes an already-valid
   profile. *)
let prop_clamp_repairs =
  let gen =
    QCheck.Gen.(
      let knob =
        frequency
          [ (6, float_range (-0.5) 1.5); (1, return Float.nan); (1, return 2.0) ]
      in
      let* p_cold_split = knob in
      let* p_tail_call = knob in
      let* p_switch = knob in
      let* p_frameless = knob in
      let* p_text_junk = knob in
      let* p_junk_prologue = knob in
      let* p_table_pool = knob in
      let* align = int_range (-4) 70 in
      let* junk_scale = int_range (-2) 6 in
      let* body_scale = float_range (-1.0) 2.0 in
      return
        {
          (Profile.make Profile.Synthllvm Profile.O3) with
          p_cold_split;
          p_tail_call;
          p_switch;
          p_frameless;
          p_text_junk;
          p_junk_prologue;
          p_table_pool;
          align;
          junk_scale;
          body_scale;
        })
  in
  QCheck.Test.make ~name:"Profile.clamp repairs any perturbation" ~count:300
    (QCheck.make gen)
    (fun p ->
      (match Profile.check (Profile.clamp p) with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "clamp left invalid: %s" e);
      (match Profile.check p with
      | Ok () ->
          if Profile.clamp p <> p then
            QCheck.Test.fail_reportf "clamp changed a valid profile"
      | Error _ -> ());
      true)

let suite =
  [
    Alcotest.test_case "scenario catalog well-formed" `Quick test_catalog;
  ]
  @ List.map
      (fun id ->
        Alcotest.test_case
          (Printf.sprintf "differential: %s" id)
          `Quick
          (test_scenario_differential id))
      (Adversary.ids ())
  @ [
      Alcotest.test_case "padding pools: scaled, forged prologues" `Quick
        test_padding_shapes;
      Alcotest.test_case "cet pools: endbr64 decoys" `Quick test_cet_shapes;
      Alcotest.test_case "cfi-broken: ten referenced lying FDEs" `Quick
        test_cfi_broken_shapes;
      Alcotest.test_case "dwarf64: 64-bit records on disk" `Quick
        test_dwarf64_shapes;
      Alcotest.test_case "no-eh-frame-hdr: section stripped" `Quick
        test_no_hdr_shapes;
      Alcotest.test_case "fde-overlap: duplicated overlapping ranges" `Quick
        test_overlap_shapes;
      Alcotest.test_case "fde_starting_at agrees with the FDE list" `Quick
        test_fde_starting_at;
      Alcotest.test_case "FETCH ignores pools on every scenario" `Quick
        test_fetch_on_scenarios;
      Alcotest.test_case "harness: FETCH drop below pattern tools" `Slow
        test_harness_deltas;
      Alcotest.test_case "Profile.make satisfies its invariant" `Quick
        test_make_invariant;
      QCheck_alcotest.to_alcotest prop_clamp_repairs;
    ]
