(* Tests for fetch.check: the shared worklist dataflow engine (merge
   disciplines, fuel, fatal verdicts, edge hooks) and the cross-layer
   consistency linter (each rule against a fabricated inconsistency, the
   indexed rules against their pairwise model, the split-function rule
   against synth ground truth, and the whole report against golden
   files). *)

open Fetch_x86
open Fetch_analysis
module I = Insn
module Dataflow = Fetch_check.Dataflow
module Lint = Fetch_check.Lint
module Finding = Fetch_check.Finding

let check = Alcotest.check

(* Hand-assemble a tiny image: text at 0x1000 (same shape as the
   analysis tests). *)
let image_of items =
  let asm = Asm.assemble ~base:0x1000 items in
  let open Fetch_elf.Image in
  let sections =
    [
      {
        sec_name = ".text";
        kind = Progbits;
        flags = shf_alloc lor shf_execinstr;
        addr = 0x1000;
        data = asm.code;
        addralign = 16;
        entsize = 0;
      };
    ]
  in
  ({ entry = 0x1000; sections; symbols = [] }, asm)

let label asm l = Asm.label_addr asm l

let loaded_of items =
  let img, asm = image_of items in
  (Loaded.load img, asm)

(* --- the engine, on a path-counting lattice ---

   State counts NOPs along the path; join takes the minimum, so the two
   merge disciplines give observably different answers at a merge point:
   First_write_wins keeps whichever path arrived first, Join_fixpoint
   settles on the minimum over all paths. *)
module Count = struct
  type state = int
  type fatal = int  (** address the analysis aborted at *)

  let equal = Int.equal
  let join = min

  let transfer tbl ~addr s st =
    match Insn_table.insn tbl s with
    | I.Nop _ -> Dataflow.Step (st + 1)
    | I.Ud2 -> Dataflow.Fatal addr
    | _ -> Dataflow.Step st

  (* the NOPs of a block's body, unless it holds a [ud2] *)
  let body bt k st =
    let tbl = Block_table.table bt in
    let rec go a i st =
      if i = 0 then Some st
      else
        let s = Insn_table.find tbl a in
        let a' = a + Insn_table.len tbl s in
        match Insn_table.insn tbl s with
        | I.Nop _ -> go a' (i - 1) (st + 1)
        | I.Ud2 -> None
        | _ -> go a' (i - 1) st
    in
    go (Block_table.lo bt k) (Block_table.body_insns bt k) st
end

module CS = Dataflow.Make (Count)

let prog_of (loaded : Loaded.t) = loaded.blocks

(* the recorded pre-state at [a] *)
let state_at (loaded : Loaded.t) sol a =
  let found = ref None in
  CS.iter_states loaded.table sol (fun a' st -> if a' = a then found := Some st);
  !found

(* Diamond: the left path counts two NOPs, the right path none; both end
   with an explicit jump to [merge]. *)
let diamond =
  [
    Asm.Label "f";
    Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
    Asm.I (I.Jcc (I.E, I.To_label "left"));
    Asm.I (I.Jmp (I.To_label "merge"));
    Asm.Label "left";
    Asm.I (I.Nop 1);
    Asm.I (I.Nop 1);
    Asm.I (I.Jmp (I.To_label "merge"));
    Asm.Label "merge";
    Asm.I I.Ret;
  ]

let test_engine_first_write_wins () =
  let loaded, asm = loaded_of diamond in
  let sol =
    CS.solve (prog_of loaded) CS.default_policy ~merge:Dataflow.First_write_wins
      ~entry:(label asm "f") ~init:0 ()
  in
  (* breadth-first: the taken (left) edge is enqueued before the
     fallthrough, so the 2-NOP path reaches [merge] first and later
     arrivals are discarded *)
  check (Alcotest.option Alcotest.int) "first arrival kept" (Some 2)
    (state_at loaded sol (label asm "merge"));
  check Alcotest.int "four blocks walked" 4 sol.CS.blocks_walked;
  check Alcotest.bool "not exhausted" false sol.CS.exhausted;
  check (Alcotest.option Alcotest.int) "no fatal" None sol.CS.fatal

let test_engine_join_fixpoint () =
  let loaded, asm = loaded_of diamond in
  let sol =
    CS.solve (prog_of loaded) CS.default_policy ~merge:Dataflow.Join_fixpoint
      ~entry:(label asm "f") ~init:0 ()
  in
  (* the join (min) over both paths survives regardless of arrival order *)
  check (Alcotest.option Alcotest.int) "joined over both paths" (Some 0)
    (state_at loaded sol (label asm "merge"));
  check Alcotest.bool "at least one in-state update" true (sol.CS.joins >= 1)

let test_engine_fatal_stops () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Nop 1);
        Asm.Label "bad";
        Asm.I I.Ud2;
        Asm.I (I.Nop 1);
      ]
  in
  let sol =
    CS.solve (prog_of loaded) CS.default_policy ~merge:Dataflow.First_write_wins
      ~entry:(label asm "f") ~init:0 ()
  in
  check (Alcotest.option Alcotest.int) "fatal at ud2" (Some (label asm "bad"))
    sol.CS.fatal

let test_engine_fuel_exhaustion () =
  let loaded, asm =
    loaded_of
      (Asm.Label "f"
      :: List.init 8 (fun _ -> Asm.I (I.Nop 1))
      @ [ Asm.I I.Ret ])
  in
  let sol =
    CS.solve ~max_block_insns:4 (prog_of loaded) CS.default_policy
      ~merge:Dataflow.First_write_wins ~entry:(label asm "f") ~init:0 ()
  in
  check Alcotest.bool "fuel exhaustion reported" true sol.CS.exhausted;
  check Alcotest.int "stopped at the budget" 4 sol.CS.steps

let test_engine_edge_state_resets () =
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Nop 1);
      Asm.I (I.Nop 1);
      Asm.I (I.Jmp (I.To_label "b"));
      Asm.Label "b";
      Asm.I I.Ret;
    ]
  in
  let loaded, asm = loaded_of items in
  let solve policy =
    CS.solve (prog_of loaded) policy ~merge:Dataflow.First_write_wins
      ~entry:(label asm "f") ~init:0 ()
  in
  let plain = solve CS.default_policy in
  check (Alcotest.option Alcotest.int) "state crosses the edge" (Some 2)
    (state_at loaded plain (label asm "b"));
  let reset =
    solve
      { CS.default_policy with edge_state = (fun _ -> 0) }
  in
  check (Alcotest.option Alcotest.int) "edge hook reset the state" (Some 0)
    (state_at loaded reset (label asm "b"))

let test_engine_undecodable_policy () =
  let loaded, asm =
    loaded_of [ Asm.Label "f"; Asm.I (I.Nop 1); Asm.Raw "\xff\xff" ]
  in
  let policy =
    { CS.default_policy with undecodable = (fun addr -> Some addr) }
  in
  let sol =
    CS.solve (prog_of loaded) policy ~merge:Dataflow.First_write_wins
      ~entry:(label asm "f") ~init:0 ()
  in
  check (Alcotest.option Alcotest.int) "undecodable byte is fatal"
    (Some (label asm "f" + 1))
    sol.CS.fatal

(* A walk that begins mid-block splits a block an earlier walk recorded:
   the split-off part keeps the state the earlier walk reached it with
   (first write wins), or joins the new one into it.  Breadth-first, the
   walk from [a] records [\[a, ret\]] with 2 NOPs counted at [mid]; the
   jump from the fallthrough then begins a walk at [mid] with 0. *)
let test_engine_split_keeps_records () =
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
      Asm.I (I.Jcc (I.E, I.To_label "a"));
      Asm.I (I.Jmp (I.To_label "mid"));
      Asm.Label "a";
      Asm.I (I.Nop 1);
      Asm.I (I.Nop 1);
      Asm.Label "mid";
      Asm.I (I.Nop 1);
      Asm.Label "ret";
      Asm.I I.Ret;
    ]
  in
  let module M = Reference.Solve (Count) in
  List.iter
    (fun (merge, name, at_mid, at_ret) ->
      let loaded, asm = loaded_of items in
      let sol =
        CS.solve (prog_of loaded) CS.default_policy ~merge ~entry:(label asm "f")
          ~init:0 ()
      in
      check (Alcotest.option Alcotest.int) (name ^ ": at mid") (Some at_mid)
        (state_at loaded sol (label asm "mid"));
      check (Alcotest.option Alcotest.int) (name ^ ": at ret") (Some at_ret)
        (state_at loaded sol (label asm "ret"));
      let model =
        M.solve loaded.table CS.default_policy ~merge ~entry:(label asm "f") ~init:0 ()
      in
      check (Alcotest.option Alcotest.int) (name ^ ": the model at mid") (Some at_mid)
        (Hashtbl.find_opt model.states (label asm "mid"));
      check Alcotest.int (name ^ ": steps") model.steps sol.CS.steps)
    [
      (Dataflow.First_write_wins, "first write", 2, 3);
      (Dataflow.Join_fixpoint, "join", 0, 1);
    ]

(* --- §IV-E on the engine: caller-saved registers die at call sites --- *)

let validate_items items =
  let loaded, asm = loaded_of items in
  (* no noreturn facts: every call falls through *)
  (Callconv.validate loaded (Recursive.run loaded ~seeds:[]) (label asm "f"), asm)

let test_callconv_call_clobbers_caller_saved () =
  (* r10 is live and initialized before the call, but caller-saved:
     reading it after the call is a violation *)
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.R10, I.Imm 7));
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rdx, I.Reg Reg.R10));
        Asm.I (I.Call (I.To_label "g"));
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.R10));
        Asm.I I.Ret;
        Asm.Label "g";
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "stale r10 read rejected" true (Result.is_error v)

let test_callconv_callee_saved_survives_call () =
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rbx, I.Imm 7));
        Asm.I (I.Call (I.To_label "g"));
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.Rbx));
        Asm.I I.Ret;
        Asm.Label "g";
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "rbx survives the call" true (Result.is_ok v)

(* An indirect call does not end a block: [b]'s body clobbers r10 with
   the call and then reads it, which fails whatever the state [b] is
   entered with (here r10 initialized, in [f]).  The block summary must
   say so, not only the per-instruction step. *)
let test_callconv_indirect_call_clobbers_in_block () =
  let v, asm =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.R10, I.Imm 7));
        Asm.I (I.Jmp (I.To_label "b"));
        Asm.Label "b";
        Asm.I (I.Call_ind (I.Reg Reg.Rdi));
        Asm.Label "read";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rdx, I.Reg Reg.R10));
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "stale r10 read after the indirect call" true
    (v = Error { Callconv.at = label asm "read"; reg = Some Reg.R10 })

(* The 64-instruction fuel cuts a long block exactly where a walk that
   steps every instruction stops: a stale read as the 64th instruction
   is a violation, as the 65th it is never reached. *)
let test_callconv_fuel_cuts_a_block () =
  let with_read_at n =
    validate_items
      (Asm.Label "f"
       :: List.init (n - 1) (fun _ -> Asm.I (I.Nop 1))
      @ [ Asm.Label "read"; Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.R10)); Asm.I I.Ret ])
  in
  let v, asm = with_read_at Callconv.max_insns in
  check Alcotest.bool "read as the last instruction the fuel covers" true
    (v = Error { Callconv.at = label asm "read"; reg = Some Reg.R10 });
  let v, _ = with_read_at (Callconv.max_insns + 1) in
  check Alcotest.bool "read past the fuel" true (v = Ok ())

(* A body whose stack effect does not fit the summary's 26 bits keeps it
   exactly (the block table holds it apart): the heights equal the
   per-instruction model's. *)
let test_heights_wide_delta () =
  let sub v = Asm.I (I.Arith (I.Sub, I.W64, I.Reg Reg.Rsp, I.Imm v)) in
  let loaded, asm =
    loaded_of
      [ Asm.Label "f"; sub 0x40000000; sub 0x40000000; Asm.Label "end"; Asm.I (I.Nop 1); Asm.I I.Ret ]
  in
  let f = label asm "f" in
  let heights = Stack_height.analyze loaded ~style:Stack_height.Dyninst f in
  check (Alcotest.option Alcotest.int) "height after the body" (Some 0x80000000)
    (heights (label asm "end"));
  let model = Reference.stack_heights loaded ~style:Stack_height.Dyninst f in
  check Alcotest.bool "== the model" true
    (Hashtbl.fold (fun a h ok -> ok && heights a = Some h) model true);
  let bt = loaded.blocks in
  check Alcotest.int "the summary's delta" (-0x80000000)
    (Block_table.sp_delta bt (Block_table.start bt f))

(* --- the linter, rule by rule, against fabricated views --- *)

let lint_view ?(funcs = []) ?(fdes = []) ?(complete = [])
    ?(oracle_height = fun _ -> None) ?(entry_height = fun _ -> None)
    ?(callconv_ok = fun _ -> true)
    ?(referenced_outside_jumps_of = fun ~entry:_ _ -> false) loaded
    (res : Recursive.result) =
  {
    Lint.block_table = loaded.Loaded.blocks;
    funcs;
    insn_spans = res.Recursive.insn_spans;
    fdes;
    complete_at =
      (fun a -> List.exists (fun (lo, hi) -> a >= lo && a < hi) complete);
    oracle_height;
    entry_height;
    callconv_ok;
    call_returns = (fun _ -> true);
    referenced_outside_jumps_of;
    resolve_indirect = (fun ~window:_ _ -> None);
  }

let findings_of rule fs = List.filter (fun f -> f.Finding.rule = rule) fs

let blocks_of (res : Recursive.result) entry =
  (Hashtbl.find res.Recursive.funcs entry).Recursive.blocks

let test_lint_jump_mid_insn () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Imm 0x11223344));
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  (* fabricate a jump landing inside the 7-byte mov at [f] *)
  let funcs =
    [ { Lint.entry = fa; blocks = blocks_of res fa; jumps = [ (fa, fa + 3) ] } ]
  in
  match findings_of "jump-mid-insn" (Lint.run (lint_view ~funcs loaded res)) with
  | [ f ] ->
      check Alcotest.bool "error severity" true (f.severity = Finding.Error);
      check Alcotest.int "at the landing address" (fa + 3) f.addr;
      check (Alcotest.option Alcotest.int) "site recorded" (Some fa) f.related
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_func_overlap_disagreeing () =
  (* [f] decodes a 10-byte movabs whose immediate bytes are themselves a
     valid instruction stream, claimed as a second function [g]: the
     overlap decodes with different boundaries *)
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.Raw "\x48\xb8";
        (* movabs rax, imm64; the 8 immediate bytes follow *)
        Asm.Label "g";
        Asm.I (I.Nop 4);
        Asm.I (I.Nop 3);
        Asm.I I.Ret;
        Asm.Label "fend";
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and ga = label asm "g" in
  let fend = label asm "fend" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let funcs =
    [
      { Lint.entry = fa; blocks = [ (fa, fend + 1) ]; jumps = [] };
      { Lint.entry = ga; blocks = [ (ga, ga + 8) ]; jumps = [] };
    ]
  in
  match findings_of "func-overlap" (Lint.run (lint_view ~funcs loaded res)) with
  | [ f ] ->
      check Alcotest.bool "error severity" true (f.severity = Finding.Error);
      check Alcotest.int "at the overlap start" ga f.addr
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_func_overlap_agreeing () =
  (* two functions sharing an identical tail block: Info, not Error *)
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I I.Ret;
        Asm.Label "g";
        Asm.I I.Ret;
        Asm.Label "t";
        Asm.I (I.Nop 1);
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and ga = label asm "g" and ta = label asm "t" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let funcs =
    [
      { Lint.entry = fa; blocks = [ (fa, fa + 1); (ta, ta + 2) ]; jumps = [] };
      { Lint.entry = ga; blocks = [ (ga, ga + 1); (ta, ta + 2) ]; jumps = [] };
    ]
  in
  match findings_of "func-overlap" (Lint.run (lint_view ~funcs loaded res)) with
  | [ f ] ->
      check Alcotest.bool "info severity" true (f.severity = Finding.Info);
      check Alcotest.int "at the shared block" ta f.addr
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_jump_mid_func () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Jmp (I.To_label "gmid"));
        Asm.Label "g";
        Asm.I (I.Nop 1);
        Asm.Label "gmid";
        Asm.I (I.Nop 1);
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and ga = label asm "g" in
  let gm = label asm "gmid" in
  let res = Recursive.run loaded ~seeds:[ fa; ga ] in
  let funcs =
    [
      { Lint.entry = fa; blocks = [ (fa, ga) ]; jumps = [ (fa, gm) ] };
      { Lint.entry = ga; blocks = [ (ga, gm + 2) ]; jumps = [] };
    ]
  in
  match findings_of "jump-mid-func" (Lint.run (lint_view ~funcs loaded res)) with
  | [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the jump site" fa f.addr;
      check (Alcotest.option Alcotest.int) "target recorded" (Some gm) f.related
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* --- func-overlap and jump-mid-func against their pairwise definitions ---
   The reference model is the rules' pairwise definition: every
   function pair compared block by block, every jump checked against
   every function.  The indexed rules must reproduce it finding for
   finding, messages included. *)

(* A view over fabricated functions only: every address starts an
   instruction of 1 to 3 bytes (none at [a mod 23 = 22]), so walks from
   two block starts sometimes fall into step and sometimes not.  No
   committed instructions, FDEs or CFI, so every other rule stays
   silent. *)
let fabricated_insn a =
  if a mod 23 = 22 then None
  else
    let len = 1 + (a * a mod 3) in
    Some (I.Nop len, len)

let fabricated_view funcs =
  {
    Lint.block_table =
      Block_table.create (Insn_table.create ~decode:fabricated_insn [ (0, 4096) ]);
    funcs;
    insn_spans = Fetch_util.Insn_index.create [];
    fdes = [];
    complete_at = (fun _ -> false);
    oracle_height = (fun _ -> None);
    entry_height = (fun _ -> None);
    callconv_ok = (fun _ -> true);
    call_returns = (fun _ -> true);
    referenced_outside_jumps_of = (fun ~entry:_ _ -> false);
    resolve_indirect = (fun ~window:_ _ -> None);
  }

let model_boundaries ~from ~lo ~hi =
  let rec walk addr acc =
    if addr >= hi then List.rev acc
    else
      match fabricated_insn addr with
      | Some (_, len) ->
          walk (addr + len) (if addr >= lo then addr :: acc else acc)
      | None -> List.rev acc
  in
  walk from []

let model_func_overlap (v : Lint.view) =
  let first_overlap (f : Lint.func) (g : Lint.func) =
    List.find_map
      (fun (flo, fhi) ->
        List.find_map
          (fun (glo, ghi) ->
            let olo = max flo glo and ohi = min fhi ghi in
            if olo < ohi then Some (flo, glo, olo, ohi) else None)
          g.blocks)
      f.blocks
  in
  let rec pairs acc = function
    | [] -> acc
    | (f : Lint.func) :: rest ->
        let found =
          List.filter_map
            (fun (g : Lint.func) ->
              Option.map
                (fun (flo, glo, olo, ohi) ->
                  let agree =
                    model_boundaries ~from:flo ~lo:olo ~hi:ohi
                    = model_boundaries ~from:glo ~lo:olo ~hi:ohi
                  in
                  {
                    Finding.rule = "func-overlap";
                    severity = (if agree then Finding.Info else Finding.Error);
                    addr = olo;
                    related = Some g.entry;
                    message =
                      (if agree then
                         Printf.sprintf
                           "functions %#x and %#x share code (agreeing \
                            instruction boundaries)"
                           f.entry g.entry
                       else
                         Printf.sprintf
                           "functions %#x and %#x decode overlapping bytes \
                            with different instruction boundaries"
                           f.entry g.entry);
                  })
                (first_overlap f g))
            rest
        in
        pairs (found @ acc) rest
  in
  pairs [] v.funcs

let model_jump_mid_func (v : Lint.view) =
  let in_blocks (f : Lint.func) a =
    List.exists (fun (lo, hi) -> a >= lo && a < hi) f.blocks
  in
  let is_block_start (f : Lint.func) a =
    List.exists (fun (lo, _) -> lo = a) f.blocks
  in
  let seen = Hashtbl.create 16 and out = ref [] in
  List.iter
    (fun (f : Lint.func) ->
      List.iter
        (fun (site, target) ->
          List.iter
            (fun (g : Lint.func) ->
              if
                g.entry <> f.entry && target <> g.entry && in_blocks g target
                && (not (is_block_start g target))
                && (not (in_blocks f target))
                && not (Hashtbl.mem seen (site, target))
              then begin
                Hashtbl.replace seen (site, target) ();
                out :=
                  {
                    Finding.rule = "jump-mid-func";
                    severity = Finding.Warning;
                    addr = site;
                    related = Some target;
                    message =
                      Printf.sprintf
                        "jump into the middle of detected function %#x" g.entry;
                  }
                  :: !out
              end)
            v.funcs)
        f.jumps)
    v.funcs;
  !out

(* Random functions over a small address space, so blocks collide often:
   fresh, empty, nested in, adjacent to and duplicates of earlier blocks.
   Jumps land on entries, block starts, mid-block and outside every
   block, and some repeat an earlier function's (site, target). *)
let gen_funcs st =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let blocks = ref [] in
  let block () =
    let b =
      match (int 0 4, !blocks) with
      | 1, _ ->
          let lo = int 0 60 in
          (lo, lo)
      | 2, (_ :: _ as bs) ->
          let lo, hi = pick bs in
          let a = int lo (max lo (hi - 1)) in
          (a, int a hi)
      | 3, (_ :: _ as bs) ->
          let _, hi = pick bs in
          (hi, hi + int 1 8)
      | 4, (_ :: _ as bs) -> pick bs
      | _ ->
          let lo = int 0 60 in
          (lo, lo + int 1 12)
    in
    blocks := b :: !blocks;
    b
  in
  let shells =
    List.init (int 0 6) (fun _ ->
        let bs = List.init (int 0 4) (fun _ -> block ()) in
        let entry =
          match bs with (lo, _) :: _ when int 0 2 > 0 -> lo | _ -> int 0 64
        in
        (entry, bs))
  in
  let jumps = ref [] in
  let target () =
    match (int 0 3, !blocks) with
    | 0, _ when shells <> [] -> fst (pick shells)
    | 1, (_ :: _ as bs) -> fst (pick bs)
    | 2, (_ :: _ as bs) ->
        let lo, hi = pick bs in
        if hi - lo >= 2 then int (lo + 1) (hi - 1) else lo
    | _ -> int 80 90
  in
  let jump () =
    let j =
      match !jumps with
      | _ :: _ as js when int 0 3 = 0 -> pick js
      | _ -> (int 0 70, target ())
    in
    jumps := j :: !jumps;
    j
  in
  List.map
    (fun (entry, blocks) ->
      { Lint.entry; blocks; jumps = List.init (int 0 4) (fun _ -> jump ()) })
    shells

let print_funcs funcs =
  let pairs l =
    String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%d, %d)" a b) l)
  in
  String.concat "\n"
    (List.map
       (fun (f : Lint.func) ->
         Printf.sprintf "entry %d blocks [%s] jumps [%s]" f.entry
           (pairs f.blocks) (pairs f.jumps))
       funcs)

let prop_indexed_rules_match_model =
  QCheck.Test.make ~name:"lint: indexed rules == pairwise model" ~count:2000
    (QCheck.make ~print:print_funcs gen_funcs)
    (fun funcs ->
      let v = fabricated_view funcs in
      let want =
        List.sort Finding.compare (model_func_overlap v @ model_jump_mid_func v)
      in
      let got = Lint.run v in
      if got <> want then
        QCheck.Test.fail_reportf "indexed:\n%s\nmodel:\n%s"
          (String.concat "\n" (List.map Finding.to_string got))
          (String.concat "\n" (List.map Finding.to_string want));
      true)

(* The finding comes from the first overlapping pair in [f.blocks] order,
   even when a later pair overlaps at a lower address. *)
let test_lint_func_overlap_first_pair () =
  let funcs =
    [
      { Lint.entry = 0x40; blocks = [ (0x40, 0x48); (0x10, 0x18) ]; jumps = [] };
      { Lint.entry = 0x10; blocks = [ (0x10, 0x18); (0x44, 0x50) ]; jumps = [] };
    ]
  in
  match findings_of "func-overlap" (Lint.run (fabricated_view funcs)) with
  | [ f ] ->
      check Alcotest.int "at the first pair's overlap" 0x44 f.addr;
      check (Alcotest.option Alcotest.int) "names g" (Some 0x10) f.related
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* Two functions share one (site, target) into a third body: one finding,
   naming the first function that qualifies.  The function at 0x30 comes
   earlier but starts a block at the target, so 0x20 is named. *)
let test_lint_jump_mid_func_shared_jump () =
  let jump = (0x5, 0x24) in
  let funcs =
    [
      { Lint.entry = 0x0; blocks = [ (0x0, 0x8) ]; jumps = [ jump ] };
      { Lint.entry = 0x8; blocks = [ (0x8, 0x10) ]; jumps = [ jump ] };
      { Lint.entry = 0x30; blocks = [ (0x20, 0x28); (0x24, 0x26) ]; jumps = [] };
      { Lint.entry = 0x20; blocks = [ (0x20, 0x2c) ]; jumps = [] };
      { Lint.entry = 0x22; blocks = [ (0x22, 0x28) ]; jumps = [] };
    ]
  in
  match findings_of "jump-mid-func" (Lint.run (fabricated_view funcs)) with
  | [ f ] ->
      check Alcotest.int "at the site" 0x5 f.addr;
      check (Alcotest.option Alcotest.int) "target" (Some 0x24) f.related;
      check Alcotest.string "names the first qualifying function"
        "jump into the middle of detected function 0x20" f.message
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_fde_unreached () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I I.Ret;
        Asm.Align 16;
        Asm.Label "ghost";
        Asm.Raw (String.make 16 '\xcc');
      ]
  in
  let fa = label asm "f" and gh = label asm "ghost" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  (* one FDE fully decoded, one covering bytes nobody ever decoded *)
  let fdes = [ (fa, fa + 1); (gh, gh + 16) ] in
  match findings_of "fde-unreached" (Lint.run (lint_view ~fdes loaded res)) with
  | [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the FDE start" gh f.addr
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_fde_partially_reached () =
  (* decoded ret + 15 undecoded padding bytes under one FDE: partial
     coverage downgrades to Info (the landing-pad shape) *)
  let loaded, asm =
    loaded_of
      [ Asm.Label "f"; Asm.I I.Ret; Asm.Raw (String.make 15 '\xcc') ]
  in
  let fa = label asm "f" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let fdes = [ (fa, fa + 16) ] in
  match findings_of "fde-unreached" (Lint.run (lint_view ~fdes loaded res)) with
  | [ f ] -> check Alcotest.bool "info severity" true (f.severity = Finding.Info)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* [fetch serve] lints untrusted binaries: an FDE claiming 2^40 bytes
   costs the text it overlaps, not its claim. *)
let test_lint_fde_huge_range () =
  let loaded, asm =
    loaded_of [ Asm.Label "f"; Asm.I I.Ret; Asm.Raw (String.make 15 '\xcc') ]
  in
  let fa = label asm "f" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let fdes = [ (fa, fa + (1 lsl 40)) ] in
  let t0 = Unix.gettimeofday () in
  let fs = findings_of "fde-unreached" (Lint.run (lint_view ~fdes loaded res)) in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 1.0 then Alcotest.failf "lint took %.1f s" dt;
  match fs with
  | [ f ] ->
      check Alcotest.string "counts the decoded byte"
        (Printf.sprintf "FDE covers [%#x, %#x) but only 1 of %d bytes were decoded"
           fa (fa + (1 lsl 40)) (1 lsl 40))
        f.message
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_start_callconv () =
  let loaded, asm = loaded_of [ Asm.Label "f"; Asm.I I.Ret ] in
  let fa = label asm "f" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let funcs = [ { Lint.entry = fa; blocks = blocks_of res fa; jumps = [] } ] in
  let view = lint_view ~funcs ~callconv_ok:(fun a -> a <> fa) loaded res in
  match findings_of "start-callconv" (Lint.run view) with
  | [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the start" fa f.addr
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_height_mismatch () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Push Reg.Rbx);
        Asm.Label "body";
        Asm.I (I.Nop 1);
        Asm.I (I.Pop Reg.Rbx);
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and body = label asm "body" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let hi = fa + 4 in
  let funcs = [ { Lint.entry = fa; blocks = [ (fa, hi) ]; jumps = [] } ] in
  (* a lying oracle: claims height 0 after the push (statically 8) *)
  let oracle a = if a = body then Some 0 else None in
  let view =
    lint_view ~funcs ~complete:[ (fa, hi) ] ~oracle_height:oracle loaded res
  in
  match findings_of "height-mismatch" (Lint.run view) with
  | [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the disagreeing address" body f.addr;
      check (Alcotest.option Alcotest.int) "function recorded" (Some fa)
        f.related
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_truthful_oracle_quiet () =
  (* same code, an oracle that tells the truth: no finding *)
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Push Reg.Rbx);
        Asm.Label "body";
        Asm.I (I.Nop 1);
        Asm.I (I.Pop Reg.Rbx);
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and body = label asm "body" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let hi = fa + 4 in
  let funcs = [ { Lint.entry = fa; blocks = [ (fa, hi) ]; jumps = [] } ] in
  let oracle a = if a = body then Some 8 else None in
  let view =
    lint_view ~funcs ~complete:[ (fa, hi) ] ~oracle_height:oracle loaded res
  in
  check Alcotest.int "no findings" 0 (List.length (Lint.run view))

(* The height dataflow stays inside [f]'s blocks: [f] leaves them by a
   conditional jump to its neighbour [g] and by a trailing call that
   falls into [g].  Walked from [f], [g] would carry [f]'s height 8
   against [g]'s own CFI height 0. *)
let test_lint_height_mismatch_confined () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Push Reg.Rbx);
        Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
        Asm.I (I.Jcc (I.E, I.To_label "g"));
        Asm.I (I.Call (I.To_label "g"));
        Asm.Label "g";
        Asm.I (I.Nop 1);
        Asm.I I.Ret;
        Asm.Label "end";
      ]
  in
  let fa = label asm "f" and g = label asm "g" and hi = label asm "end" in
  let res = Recursive.run loaded ~seeds:[ fa; g ] in
  let funcs =
    [
      { Lint.entry = fa; blocks = [ (fa, g) ]; jumps = [] };
      { Lint.entry = g; blocks = [ (g, hi) ]; jumps = [] };
    ]
  in
  let oracle a =
    if a = fa then Some 0 else if a > fa && a < g then Some 8 else Some 0
  in
  let view =
    lint_view ~funcs ~complete:[ (fa, hi) ] ~oracle_height:oracle loaded res
  in
  check Alcotest.int "no height-mismatch" 0
    (List.length (findings_of "height-mismatch" (Lint.run view)))

(* [f] jumps past its own end to [frag], which has an FDE of its own.
   Each optional argument breaks one premise of split-fn-fde. *)
let split_findings ?(site_height = 8) ?(frag_height = 8) ?(outside = false)
    ?(frag_fde = true) ?(frag_in_f = false) () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Jmp (I.To_label "frag"));
        Asm.Label "frag";
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and frag = label asm "frag" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let hi = if frag_in_f then frag + 1 else frag in
  let funcs =
    [ { Lint.entry = fa; blocks = [ (fa, hi) ]; jumps = [ (fa, frag) ] } ]
  in
  let view =
    lint_view ~funcs
      ~fdes:((fa, frag) :: (if frag_fde then [ (frag, frag + 1) ] else []))
      ~oracle_height:(fun a -> if a = fa then Some site_height else None)
      ~entry_height:(fun a -> if a = frag then Some frag_height else None)
      ~referenced_outside_jumps_of:(fun ~entry a ->
        outside && entry = fa && a = frag)
      loaded res
  in
  (fa, frag, findings_of "split-fn-fde" (Lint.run view))

let test_lint_split_fn_fde () =
  (match split_findings () with
  | fa, frag, [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the fragment" frag f.addr;
      check (Alcotest.option Alcotest.int) "jump site recorded" (Some fa)
        f.related;
      check Alcotest.string "message"
        (Printf.sprintf
           "FDE at %#x looks like a split-off fragment of %#x (only reached \
            by its jumps, matching CFI height 8)"
           frag fa)
        f.message
  | _, _, fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  let quiet what (_, _, fs) = check Alcotest.int what 0 (List.length fs) in
  quiet "tail call: both heights zero"
    (split_findings ~site_height:0 ~frag_height:0 ());
  quiet "heights disagree" (split_findings ~frag_height:16 ());
  quiet "referenced outside the parent's jumps"
    (split_findings ~outside:true ());
  quiet "target has no FDE of its own" (split_findings ~frag_fde:false ());
  quiet "target inside the parent's blocks" (split_findings ~frag_in_f:true ())

(* --- split-fn-fde against synth ground truth ---
   A cold-split binary analysed with the fix stage off: Algorithm 1 does
   not merge, so the split parts survive as FDE-seeded functions of their
   own and every one the rule flags must be a true part. *)
let split_run =
  lazy
    (let profile =
       {
         (Fetch_synth.Profile.make Fetch_synth.Profile.Synthgcc
            Fetch_synth.Profile.O2)
         with
         Fetch_synth.Profile.p_cold_split = 1.0;
         p_rbp_frame = 0.0;
       }
     in
     let b =
       Fetch_synth.Link.build_random ~profile ~seed:77
         { Fetch_synth.Gen.default_spec with n_funcs = 12 }
     in
     let r =
       Fetch_core.Pipeline.run
         ~config:
           { Fetch_core.Pipeline.default_config with fix_fde_errors = false }
         b.image
     in
     (b, r))

let test_split_fn_fde_true_parts () =
  let b, r = Lazy.force split_run in
  check (Alcotest.list Alcotest.int) "census carried without the fix stage"
    (Fetch_core.Refs.pointer_candidates
       (Fetch_core.Refs.collect r.loaded r.rec_result))
    (Fetch_core.Refs.pointer_candidates r.Fetch_core.Pipeline.refs);
  let flagged = findings_of "split-fn-fde" (Fetch_core.Lint.run r) in
  check Alcotest.bool "fires on the split binary" true (flagged <> []);
  let parts = Fetch_synth.Truth.part_starts b.truth in
  List.iter
    (fun (f : Finding.t) ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      if not (List.mem f.addr parts) then
        Alcotest.failf "split-fn-fde flagged %#x: not a true part" f.addr)
    flagged

(* Negative control: one extra outside reference to a flagged target
   silences exactly that target and leaves every other finding alone. *)
let test_split_fn_fde_outside_ref_silences () =
  let _b, r = Lazy.force split_run in
  let view = Fetch_core.Lint.view_of r in
  let before = Lint.run view in
  let target =
    match findings_of "split-fn-fde" before with
    | f :: _ -> f.Finding.addr
    | [] -> Alcotest.fail "no split finding to control"
  in
  let after =
    Lint.run
      {
        view with
        referenced_outside_jumps_of =
          (fun ~entry a ->
            a = target || view.referenced_outside_jumps_of ~entry a);
      }
  in
  check Alcotest.bool "silenced under an outside reference" true
    (after
    = List.filter
        (fun (f : Finding.t) -> not (f.rule = "split-fn-fde" && f.addr = target))
        before)

(* --- golden: the whole report, pinned ---
   The four CI lint binaries (built exactly as `fetch generate` builds
   them) and three adversarial scenarios.  Each golden file is the
   sorted union of what `fetch lint --json` and the declarative rule
   engine that split-fn-fde was ported from printed for the binary.
   One exception: on fde-overlap the engine also reported 15 "partial"
   FDEs with every byte decoded ("19 of 19 bytes").  It keyed coverage
   gaps on the FDE start, which overlapping FDEs share.  Those findings
   are left out.  When the generator stopped reading scratch registers
   a loop's call clobbered, ci-11..13 and cfi-broken were re-captured
   from [Lint.run]: the findings moved with the code, and ci-11 lost an
   fde-unreached finding on the function that bug had broken.  When the
   noreturn analysis began to run to convergence, padding-junk was
   re-captured the same way, and its report is now empty.  Its main
   calls a 37-deep chain whose last link calls error_like(1), and the
   old five-pass budget stopped the noreturn facts five links up.  The
   24 start-callconv findings came from calling-convention walks that
   ran on past calls that never return.  The 3 fde-unreached findings
   were on FDEs (_start and two thunks) that Fig. 6b rejected because
   their walks ran the same way into undecodable junk; all three are
   now detected. *)
let generated ~seed compiler opt ~cxx () =
  let profile = Fetch_synth.Profile.make compiler opt in
  (Fetch_synth.Link.build_random ~profile ~seed
     {
       Fetch_synth.Gen.default_spec with
       n_funcs = 60;
       cxx;
       strip = true;
       n_asm_called = 1;
       n_asm_tailonly = 1;
       n_asm_pointer = 1;
     })
    .raw

let adversarial ?(seed = 31) id () =
  match Fetch_synth.Adversary.find id with
  | Some sc -> (Fetch_synth.Adversary.build sc ~seed).raw
  | None -> Alcotest.failf "no adversarial scenario %s" id

let golden_binaries =
  let open Fetch_synth.Profile in
  [
    ("ci-11-gcc-O2", generated ~seed:11 Synthgcc O2 ~cxx:false);
    ("ci-12-gcc-Os-cxx", generated ~seed:12 Synthgcc Os ~cxx:true);
    ("ci-13-llvm-O3", generated ~seed:13 Synthllvm O3 ~cxx:false);
    ("ci-14-llvm-Ofast", generated ~seed:14 Synthllvm Ofast ~cxx:false);
    ("cfi-broken", adversarial "cfi-broken");
    ("padding-junk", adversarial "padding-junk");
    (* at seed 31 padding-junk's findings all go once noreturn converges;
       this draw keeps start-callconv and fde-unreached findings pinned *)
    ("padding-junk-16", adversarial ~seed:16 "padding-junk");
    ("fde-overlap", adversarial "fde-overlap");
  ]

(* The golden file of [name], found from the test directory (where
   [dune runtest] runs the suite) or from the repository root (where
   [dune exec test/main.exe] runs it). *)
let lint_golden_path name =
  let file = Filename.concat "lint_golden" (name ^ ".jsonl") in
  if Sys.file_exists file then file else Filename.concat "test" file

let test_lint_golden name raw () =
  let expected =
    In_channel.with_open_bin (lint_golden_path name) In_channel.input_all
  in
  match Fetch_core.Pipeline.run_bytes (raw ()) with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok r ->
      let got =
        String.concat ""
          (List.map
             (fun f -> Finding.to_json f ^ "\n")
             (Fetch_core.Lint.run r))
      in
      check Alcotest.string (name ^ ": byte-identical JSONL") expected got

(* --- end to end: clean pipeline runs produce no Error findings --- *)

let test_lint_clean_corpora () =
  List.iter
    (fun (compiler, opt, seed) ->
      let profile = Fetch_synth.Profile.make compiler opt in
      let built =
        Fetch_synth.Link.build_random ~profile ~seed
          { Fetch_synth.Gen.default_spec with n_funcs = 40 }
      in
      let r = Fetch_core.Pipeline.run built.image in
      let findings = Fetch_core.Lint.run r in
      let errors = List.filter (fun f -> f.Finding.severity = Finding.Error) findings in
      List.iter (fun f -> Printf.eprintf "%s\n" (Finding.to_string f)) errors;
      check Alcotest.int
        (Printf.sprintf "no errors (seed %d)" seed)
        0 (List.length errors))
    [
      (Fetch_synth.Profile.Synthgcc, Fetch_synth.Profile.O2, 5);
      (Fetch_synth.Profile.Synthllvm, Fetch_synth.Profile.O3, 9);
    ]

(* Reports must be byte-stable however the findings were produced:
   [compare] is a total order (antisymmetric down to the last field), so
   sorting any permutation yields the same list. *)
let test_finding_compare_total_order () =
  let f rule severity addr related message =
    { Finding.rule; severity; addr; related; message }
  in
  let findings =
    [
      f "b" Finding.Error 5 None "x";
      f "a" Finding.Error 5 None "x";
      f "a" Finding.Warning 3 None "x";
      f "a" Finding.Warning 3 None "w";
      f "a" Finding.Warning 3 (Some 1) "w";
      f "a" Finding.Info 9 None "x";
    ]
  in
  let sorted = List.sort Finding.compare findings in
  check Alcotest.bool "permutations sort identically" true
    (List.sort Finding.compare (List.rev findings) = sorted);
  (* pairwise antisymmetry: distinct findings never compare equal *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j && Finding.compare a b = 0 then
            Alcotest.failf "distinct findings compare equal (%d, %d)" i j)
        findings)
    findings;
  check Alcotest.bool "severity dominates" true
    ((List.hd sorted).Finding.severity = Finding.Error)

let suite =
  [
    Alcotest.test_case "finding compare is a total order" `Quick
      test_finding_compare_total_order;
    Alcotest.test_case "engine: first write wins" `Quick test_engine_first_write_wins;
    Alcotest.test_case "engine: join fixpoint" `Quick test_engine_join_fixpoint;
    Alcotest.test_case "engine: fatal verdict stops the solve" `Quick test_engine_fatal_stops;
    Alcotest.test_case "engine: fuel exhaustion reported" `Quick test_engine_fuel_exhaustion;
    Alcotest.test_case "engine: edge-state hook" `Quick test_engine_edge_state_resets;
    Alcotest.test_case "engine: undecodable policy" `Quick test_engine_undecodable_policy;
    Alcotest.test_case "callconv: call clobbers caller-saved" `Quick test_callconv_call_clobbers_caller_saved;
    Alcotest.test_case "callconv: callee-saved survives call" `Quick test_callconv_callee_saved_survives_call;
    Alcotest.test_case "lint: jump-mid-insn" `Quick test_lint_jump_mid_insn;
    Alcotest.test_case "lint: func-overlap (disagreeing)" `Quick test_lint_func_overlap_disagreeing;
    Alcotest.test_case "lint: func-overlap (agreeing)" `Quick test_lint_func_overlap_agreeing;
    Alcotest.test_case "lint: jump-mid-func" `Quick test_lint_jump_mid_func;
    Alcotest.test_case "lint: func-overlap names the first block pair" `Quick
      test_lint_func_overlap_first_pair;
    Alcotest.test_case "lint: jump-mid-func, one finding per shared jump"
      `Quick test_lint_jump_mid_func_shared_jump;
    QCheck_alcotest.to_alcotest prop_indexed_rules_match_model;
    Alcotest.test_case "lint: fde-unreached" `Quick test_lint_fde_unreached;
    Alcotest.test_case "lint: fde partially reached" `Quick test_lint_fde_partially_reached;
    Alcotest.test_case "lint: start-callconv" `Quick test_lint_start_callconv;
    Alcotest.test_case "lint: height-mismatch" `Quick test_lint_height_mismatch;
    Alcotest.test_case "lint: truthful oracle stays quiet" `Quick test_lint_truthful_oracle_quiet;
    Alcotest.test_case "lint: height-mismatch stays inside the function" `Quick
      test_lint_height_mismatch_confined;
    Alcotest.test_case "lint: split-fn-fde" `Quick test_lint_split_fn_fde;
    Alcotest.test_case "lint: clean corpora, zero errors" `Quick test_lint_clean_corpora;
    Alcotest.test_case "split-fn-fde: flags true split parts" `Quick
      test_split_fn_fde_true_parts;
    Alcotest.test_case "split-fn-fde: outside ref silences it" `Quick
      test_split_fn_fde_outside_ref_silences;
  ]
  @ List.map
      (fun (name, raw) ->
        Alcotest.test_case ("lint golden: " ^ name) `Quick
          (test_lint_golden name raw))
      golden_binaries
  @ [
      Alcotest.test_case "lint: fde-unreached on a 2^40-byte FDE" `Quick test_lint_fde_huge_range;
      Alcotest.test_case "engine: a split keeps the recorded states" `Quick
        test_engine_split_keeps_records;
      Alcotest.test_case "callconv: an indirect call clobbers inside its block" `Quick
        test_callconv_indirect_call_clobbers_in_block;
      Alcotest.test_case "callconv: the fuel cuts a long block" `Quick
        test_callconv_fuel_cuts_a_block;
      Alcotest.test_case "stack heights: a body too wide for the summary" `Quick
        test_heights_wide_delta;
    ]
