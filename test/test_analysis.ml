(* Tests for fetch.analysis: recursive engine details, jump-table slicing,
   calling-convention validation, stack-height analysis, linear sweep and
   prologue matching. *)

open Fetch_analysis
open Fetch_x86
module I = Insn

let check = Alcotest.check

(* Hand-assemble a tiny image: text at 0x1000, optional rodata at 0x5000,
   optional eh_frame. *)
let image_of ?(rodata = "") ?(cies = []) items =
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
    @ (if rodata = "" then []
       else
         [
           {
             sec_name = ".rodata";
             kind = Progbits;
             flags = shf_alloc;
             addr = 0x5000;
             data = rodata;
             addralign = 8;
             entsize = 0;
           };
         ])
    @
    if cies = [] then []
    else
      [
        {
          sec_name = ".eh_frame";
          kind = Progbits;
          flags = shf_alloc;
          addr = 0x7000;
          data = Fetch_dwarf.Eh_frame.encode ~addr:0x7000 cies;
          addralign = 8;
          entsize = 0;
        };
      ]
  in
  ({ entry = 0x1000; sections; symbols = [] }, asm)

let label asm l = Asm.label_addr asm l

(* --- recursive engine --- *)

let test_rec_follows_calls () =
  let img, asm =
    image_of
      [
        Asm.Label "a";
        Asm.I (I.Call (I.To_label "b"));
        Asm.I I.Ret;
        Asm.Align 16;
        Asm.Label "b";
        Asm.I I.Ret;
      ]
  in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "a" ] in
  check (Alcotest.list Alcotest.int) "both functions"
    [ label asm "a"; label asm "b" ]
    (Recursive.starts res)

let test_rec_stops_at_noreturn_call () =
  (* a calls dead (which halts); bytes after the call are junk *)
  let img, asm =
    image_of
      [
        Asm.Label "a";
        Asm.I (I.Call (I.To_label "dead"));
        Asm.Raw "\xff\xff\xff\xff";
        Asm.Align 16;
        Asm.Label "dead";
        Asm.I I.Ud2;
      ]
  in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "a" ] in
  let a = Hashtbl.find res.funcs (label asm "a") in
  check Alcotest.bool "no decode error (stopped at call)" false a.decode_error;
  check Alcotest.bool "dead is noreturn" true
    (Hashtbl.mem res.noreturn (label asm "dead"));
  (* the weak engine has no noreturn analysis: the call falls through and
     the junk after it is decoded *)
  let weak = Recursive.run ~safe:false loaded ~seeds:[ label asm "a" ] in
  let a = Hashtbl.find weak.funcs (label asm "a") in
  check Alcotest.bool "weak: decodes past the call" true a.decode_error;
  check Alcotest.bool "weak: no noreturn facts" false
    (Hashtbl.mem weak.noreturn (label asm "dead"))

let test_rec_no_tail_guessing () =
  (* a ends with jmp b where b is a known start: recorded, not traversed *)
  let img, asm =
    image_of
      [
        Asm.Label "a";
        Asm.I (I.Jmp (I.To_label "b"));
        Asm.Align 16;
        Asm.Label "b";
        Asm.I I.Ret;
      ]
  in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "a"; label asm "b" ] in
  let a = Hashtbl.find res.funcs (label asm "a") in
  check Alcotest.int "one out jump" 1 (List.length a.out_jumps);
  check Alcotest.bool "a has no ret of its own" false a.has_ret;
  (* a can still return through b *)
  check Alcotest.bool "a not noreturn" false
    (Hashtbl.mem res.noreturn (label asm "a"))

let test_rec_intra_jump_extends () =
  (* jmp to a non-start target is intra-procedural *)
  let img, asm =
    image_of
      [
        Asm.Label "a";
        Asm.I (I.Jmp (I.To_label "inside"));
        Asm.I (I.Nop 4);
        Asm.Label "inside";
        Asm.I I.Ret;
      ]
  in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "a" ] in
  check Alcotest.int "one function" 1 (Hashtbl.length res.funcs);
  let a = Hashtbl.find res.funcs (label asm "a") in
  check Alcotest.bool "inside is a block" true
    (List.exists (fun (lo, _) -> lo = label asm "inside") a.blocks)

(* §IV-C's backward slice proves the first argument of an [error]-style
   call only from the calling block's own writes: a call in between
   clobbers rdi, so the [mov edi, 0] before [call g] proves nothing and
   [f] ends at the [error_like] call.  [Callconv] follows the same rule,
   so it never reaches the uninitialized [rbx] read after that call. *)
let test_rec_first_arg_dies_at_call () =
  let img, asm =
    image_of
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W32, I.Reg Reg.Rdi, I.Imm 0));
        Asm.I (I.Call (I.To_label "g"));
        Asm.I (I.Call (I.To_label "error_like"));
        Asm.Label "after";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.Rbx));
        Asm.I I.Ret;
        Asm.Align 16;
        Asm.Label "g";
        Asm.I I.Ret;
        Asm.Align 16;
        Asm.Label "error_like";
        Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
        Asm.I (I.Jcc (I.E, I.To_label "ok"));
        Asm.I I.Ud2;
        Asm.Label "ok";
        Asm.I I.Ret;
      ]
  in
  let loaded = Loaded.load img in
  let f = label asm "f" in
  let res = Recursive.run loaded ~seeds:[ f ] in
  check Alcotest.bool "error_like is error-style" true
    (Hashtbl.mem res.cond_noreturn (label asm "error_like"));
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "f ends at the error_like call"
    [ (f, label asm "after") ]
    (Hashtbl.find res.funcs f).blocks;
  check Alcotest.bool "callconv stops there too" true
    (Result.is_ok (Callconv.validate loaded res f))

(* --- incremental extension --- *)

(* Everything [Xref.detect] compares between rounds: starts, spans and
   the noreturn fact tables. *)
let result_signature (res : Recursive.result) =
  let keys tbl = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) tbl []) in
  ( Recursive.starts res,
    Fetch_util.Insn_index.to_list res.insn_spans,
    keys res.noreturn,
    keys res.cond_noreturn )

(* [extend] grew [res] from [before] (a signature taken just ahead of the
   call) by exactly [delta]: its functions are the new starts, its spans
   the new instructions, and each of its records is the one [res] holds. *)
let delta_exact before (res : Recursive.result) (d : Recursive.delta) =
  let starts0, spans0, _, _ = before in
  let gained now was = List.filter (fun x -> not (List.mem x was)) now in
  List.sort compare (List.map (fun (f : Recursive.func) -> f.entry) d.new_funcs)
  = gained (Recursive.starts res) starts0
  && List.sort compare d.new_spans
     = gained (Fetch_util.Insn_index.to_list res.insn_spans) spans0
  && List.for_all
       (fun (f : Recursive.func) -> Hashtbl.find res.funcs f.entry == f)
       d.new_funcs

let extend_items =
  [
    Asm.Label "a";
    Asm.I (I.Call (I.To_label "b"));
    Asm.I I.Ret;
    Asm.Align 16;
    Asm.Label "b";
    Asm.I I.Ret;
    Asm.Align 16;
    Asm.Label "g";
    Asm.I (I.Call (I.To_label "h"));
    Asm.I I.Ret;
    Asm.Align 16;
    Asm.Label "h";
    Asm.I I.Ret;
  ]

let test_extend_equals_run () =
  (* g/h are unreachable from a: extending the a-run with seed g must
     equal running both seeds from scratch, and its delta must be exactly
     what the result gained *)
  let img, asm = image_of extend_items in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "a" ] in
  let before = result_signature res in
  let d = Recursive.extend loaded res ~seeds:[ label asm "g" ] in
  let scratch = Recursive.run loaded ~seeds:[ label asm "a"; label asm "g" ] in
  check Alcotest.bool "extend == from-scratch" true
    (result_signature res = result_signature scratch);
  check Alcotest.bool "callee h discovered by the delta" true
    (Hashtbl.mem res.funcs (label asm "h"));
  check Alcotest.bool "delta is exactly what the result gained" true
    (delta_exact before res d)

let test_extend_known_seed_noop () =
  let img, asm = image_of extend_items in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "a" ] in
  let before = result_signature res in
  let d = Recursive.extend loaded res ~seeds:[ label asm "a"; label asm "b" ] in
  check Alcotest.bool "already-known seeds change nothing" true
    (result_signature res = before);
  check Alcotest.bool "empty delta" true (d.new_funcs = [] && d.new_spans = [])

let test_extend_uses_noreturn_facts () =
  (* the prior run learns dead is noreturn; the delta function calls it
     with junk after the call and must stop there, exactly as a
     from-scratch run over both seeds would *)
  let items =
    [
      Asm.Label "a";
      Asm.I (I.Call (I.To_label "dead"));
      Asm.Raw "\xff\xff\xff\xff";
      Asm.Align 16;
      Asm.Label "dead";
      Asm.I I.Ud2;
      Asm.Align 16;
      Asm.Label "g";
      Asm.I (I.Call (I.To_label "dead"));
      Asm.Raw "\xff\xff\xff\xff";
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "a" ] in
  check Alcotest.bool "prior learned dead is noreturn" true
    (Hashtbl.mem res.noreturn (label asm "dead"));
  let before = result_signature res in
  let d = Recursive.extend loaded res ~seeds:[ label asm "g" ] in
  let g = Hashtbl.find res.funcs (label asm "g") in
  check Alcotest.bool "delta stopped at the noreturn call" false g.decode_error;
  let scratch = Recursive.run loaded ~seeds:[ label asm "a"; label asm "g" ] in
  check Alcotest.bool "extend == from-scratch" true
    (result_signature res = result_signature scratch);
  check Alcotest.bool "delta is exactly what the result gained" true
    (delta_exact before res d)

let test_extend_refixpoints_delta_noreturn () =
  (* the delta itself introduces a new noreturn function: g calls k
     (both fresh), k never returns, so the worklist inside extend must
     re-walk g, k's caller, and shrink it past the call.  The first walk
     decodes the mov and ret after the call; the re-walk must not leave
     their spans behind. *)
  let items =
    [
      Asm.Label "a";
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "g";
      Asm.I (I.Call (I.To_label "k"));
      Asm.Label "after";
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Imm 1));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "k";
      Asm.I I.Ud2;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "a" ] in
  let before = result_signature res in
  let d = Recursive.extend loaded res ~seeds:[ label asm "g" ] in
  check Alcotest.bool "k classified noreturn inside extend" true
    (Hashtbl.mem res.noreturn (label asm "k"));
  let g = Hashtbl.find res.funcs (label asm "g") in
  check Alcotest.bool "g stopped at the call after re-iteration" true
    (g.blocks = [ (label asm "g", label asm "after") ]);
  check Alcotest.bool "no span after the noreturn call" false
    (Fetch_util.Insn_index.mem res.insn_spans (label asm "after"));
  let scratch = Recursive.run loaded ~seeds:[ label asm "a"; label asm "g" ] in
  check Alcotest.bool "extend == from-scratch" true
    (result_signature res = result_signature scratch);
  check Alcotest.bool "delta is exactly what the result gained" true
    (delta_exact before res d)

(* --- the noreturn fixpoint --- *)

(* A call chain of [n] functions, each [call next; ret], the last one
   [hlt]: every link is noreturn, but only once the link below it is, so
   the from-scratch loop needs [n] whole-binary walks to get there. *)
let chain_image n =
  let name i = Printf.sprintf "c%d" i in
  let items =
    List.concat
      (List.init n (fun i ->
           if i = n - 1 then [ Asm.Label (name i); Asm.I I.Hlt ]
           else
             [
               Asm.Label (name i);
               Asm.I (I.Call (I.To_label (name (i + 1))));
               Asm.I I.Ret;
             ]))
  in
  let img, asm = image_of items in
  (Loaded.load img, List.init n (fun i -> label asm (name i)))

(* The worklist re-walks only the caller of each entry that flips, so the
   chain costs one walk per link plus one re-walk per flip, and a return
   re-check per walk: linear, where converging by re-walking everything
   after each flip is quadratic. *)
let test_worklist_hostile_chain () =
  let work n =
    let loaded, entries = chain_image n in
    let res, rep =
      Fetch_obs.Trace.with_run (fun () ->
          Recursive.run loaded ~seeds:[ List.hd entries ])
    in
    let counter name = Option.value ~default:0 (List.assoc_opt name rep.counters) in
    let flipped = List.filter (Hashtbl.mem res.noreturn) entries in
    check Alcotest.int (Printf.sprintf "n=%d: every link noreturn" n) n
      (List.length flipped);
    let walks = counter "recursive.functions_disassembled" in
    check Alcotest.bool
      (Printf.sprintf "n=%d: %d walks <= 2n + 4" n walks)
      true
      (walks <= (2 * n) + 4);
    (walks, counter "recursive.returns_checked")
  in
  let walks, checks = work 2000 in
  let walks2, checks2 = work 4000 in
  check Alcotest.bool "doubling n at most doubles the walks" true
    (walks2 <= (2 * walks) + 4);
  check Alcotest.bool "doubling n at most doubles the return re-checks" true
    (checks2 <= (2 * checks) + 4)

(* The same chain, but each link also calls a leaf of its own after the
   call to the next link: [c_i: call c_(i+1); call l_i; ret], [l_i: ret].
   Each flip cuts [l_i] from its only caller, so every leaf is retracted
   on the way, and only its caller is walked again: one walk per
   function plus one re-walk per flip.  With [shared], one more
   function, reached last, calls every leaf too: each cut leaf then
   stays, settled by one trial deletion over what it reaches (itself),
   and the run stays linear as well. *)
let leaf_chain_image ?(shared = false) n =
  let name i = Printf.sprintf "c%d" i and leaf i = Printf.sprintf "l%d" i in
  let links =
    List.concat
      (List.init n (fun i ->
           if i = n - 1 then
             Asm.Label (name i)
             :: (if shared then [ Asm.I (I.Call (I.To_label "h")) ] else [])
             @ [ Asm.I I.Hlt ]
           else
             [
               Asm.Label (name i);
               Asm.I (I.Call (I.To_label (name (i + 1))));
               Asm.I (I.Call (I.To_label (leaf i)));
               Asm.I I.Ret;
               Asm.Label (leaf i);
               Asm.I I.Ret;
             ]))
  in
  let h =
    if shared then
      (Asm.Label "h" :: List.init (n - 1) (fun i -> Asm.I (I.Call (I.To_label (leaf i)))))
      @ [ Asm.I I.Ret ]
    else []
  in
  let img, asm = image_of (links @ h) in
  ( Loaded.load img,
    List.init n (fun i -> label asm (name i)),
    List.init (n - 1) (fun i -> label asm (leaf i)) )

let chain_work ?shared n =
  let loaded, links, leaves = leaf_chain_image ?shared n in
  let res, rep =
    Fetch_obs.Trace.with_run (fun () -> Recursive.run loaded ~seeds:[ List.hd links ])
  in
  let counter name = Option.value ~default:0 (List.assoc_opt name rep.counters) in
  (loaded, links, leaves, res, counter)

let leaf_chain_linear ~shared () =
  let work n =
    let _, links, leaves, res, counter = chain_work ~shared n in
    check Alcotest.int (Printf.sprintf "n=%d: every link noreturn" n) n
      (List.length (List.filter (Hashtbl.mem res.noreturn) links));
    check Alcotest.int
      (Printf.sprintf "n=%d: leaves kept" n)
      (if shared then n - 1 else 0)
      (List.length (List.filter (Hashtbl.mem res.funcs) leaves));
    let walks = counter "recursive.functions_disassembled" in
    check Alcotest.bool
      (Printf.sprintf "n=%d: %d walks <= 3n + 4" n walks)
      true
      (walks <= (3 * n) + 4);
    (walks, counter "recursive.returns_checked")
  in
  let walks, checks = work 2000 in
  let walks2, checks2 = work 4000 in
  check Alcotest.bool "doubling n at most doubles the walks" true
    (walks2 <= (2 * walks) + 4);
  check Alcotest.bool "doubling n at most doubles the return re-checks" true
    (checks2 <= (2 * checks) + 4)

(* Both chains land on the reference fixpoint. *)
let test_worklist_leaf_chain_reference () =
  List.iter
    (fun shared ->
      let loaded, links, leaves, res, _ = chain_work ~shared 40 in
      let seeds = [ List.hd links ] in
      check Alcotest.bool
        (Printf.sprintf "shared=%b: == the reference fixpoint" shared)
        true
        (Reference.signature res
        = Reference.signature (Reference.recursive loaded ~seeds));
      check Alcotest.int
        (Printf.sprintf "shared=%b: leaves kept" shared)
        (if shared then 39 else 0)
        (List.length (List.filter (Hashtbl.mem res.funcs) leaves)))
    [ false; true ]

(* [a] calls [k], which never returns, and then [c]; [b] tail-jumps to
   [c].  [c] is an entry while [a] calls it, so [b]'s body stops at [c]'s
   entry.  Once [k] is noreturn, [a]'s call to [c] is dead: [c] is
   retracted, and [b]'s body, which stopped at [c], now holds [c]'s code,
   exactly as the reference does. *)
let test_worklist_retracts_dead_callee () =
  let items =
    [
      Asm.Label "a";
      Asm.I (I.Call (I.To_label "k"));
      Asm.I (I.Call (I.To_label "c"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "b";
      Asm.I (I.Jmp (I.To_label "c"));
      Asm.Align 16;
      Asm.Label "k";
      Asm.I I.Hlt;
      Asm.Align 16;
      Asm.Label "c";
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Imm 1));
      Asm.Label "c_ret";
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let seeds = [ label asm "a"; label asm "b" ] in
  let res = Recursive.run loaded ~seeds in
  check (Alcotest.list Alcotest.int) "c retracted"
    [ label asm "a"; label asm "b"; label asm "k" ]
    (Recursive.starts res);
  let b = Hashtbl.find res.funcs (label asm "b") in
  check Alcotest.bool "b walked on into c's code" true
    (b.out_jumps = [] && b.has_ret
    && List.exists (fun (lo, _) -> lo = label asm "c") b.blocks);
  check Alcotest.bool "c's ret is still decoded" true
    (Fetch_util.Insn_index.mem res.insn_spans (label asm "c_ret"));
  check Alcotest.bool "== the reference fixpoint" true
    (Reference.signature res = Reference.signature (Reference.recursive loaded ~seeds))

(* A discovery walk is a body only while no other non-seed entry lies
   in its instructions.  [g] falls through into [d], which [c] calls, so
   [g]'s discovery walk holds [d]'s code and its body is walked apart,
   stopping at [d], which leaves it without a ret.  Once [k] is noreturn,
   [c] is retracted, but [b]'s discovery walk runs on into [c]'s code and
   still calls [d], so [d] stays an entry and [g] still stops there. *)
let test_worklist_entry_moves_into_kept_walk () =
  let items =
    [
      Asm.Label "a";
      Asm.I (I.Call (I.To_label "k"));
      Asm.I (I.Call (I.To_label "c"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "b";
      Asm.I (I.Jmp (I.To_label "c"));
      Asm.Align 16;
      Asm.Label "k";
      Asm.I I.Hlt;
      Asm.Align 16;
      Asm.Label "c";
      Asm.I (I.Call (I.To_label "d"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "g";
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Imm 1));
      Asm.Label "d";
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let seeds = [ label asm "a"; label asm "b"; label asm "g" ] in
  let res = Recursive.run loaded ~seeds in
  check (Alcotest.list Alcotest.int) "c retracted, d registered by b"
    (List.map (label asm) [ "a"; "b"; "k"; "g"; "d" ])
    (Recursive.starts res);
  check Alcotest.bool "g stops at d" true
    ((Hashtbl.find res.funcs (label asm "g")).blocks
    = [ (label asm "g", label asm "d") ]);
  check Alcotest.bool "so g cannot return" true
    (Hashtbl.mem res.noreturn (label asm "g"));
  check Alcotest.bool "== the reference fixpoint" true
    (Reference.signature res = Reference.signature (Reference.recursive loaded ~seeds))

(* Two callees cut in different rounds.  Once [k1] is noreturn, [a]'s
   call to [x] is dead and [x], which nothing else calls, is retracted.
   Then [k2], which calls [k1], is noreturn too, so [b] stops calling
   [y]; [c] still calls [y], so [y] stays. *)
let test_worklist_cut_callees () =
  let items =
    [
      Asm.Label "a";
      Asm.I (I.Call (I.To_label "k1"));
      Asm.I (I.Call (I.To_label "x"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "b";
      Asm.I (I.Call (I.To_label "k2"));
      Asm.I (I.Call (I.To_label "y"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "k1";
      Asm.I I.Hlt;
      Asm.Align 16;
      Asm.Label "k2";
      Asm.I (I.Call (I.To_label "c"));
      Asm.I (I.Call (I.To_label "k1"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "c";
      Asm.I (I.Call (I.To_label "y"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "x";
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "y";
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let seeds = [ label asm "a"; label asm "b" ] in
  let res = Recursive.run loaded ~seeds in
  check (Alcotest.list Alcotest.int) "x retracted, y kept"
    (List.map (label asm) [ "a"; "b"; "k1"; "k2"; "c"; "y" ])
    (Recursive.starts res);
  check Alcotest.bool "== the reference fixpoint" true
    (Reference.signature res = Reference.signature (Reference.recursive loaded ~seeds))

(* Random call graphs over a dozen tiny functions: calls to each other,
   to a [hlt] exit and to an [error]-style function with a zero or
   nonzero argument, tail jumps, local branches, rets, halts and
   fallthrough into the next function.  Noreturn chains, retractions
   and bodies that stop at a non-seed entry are all common here, and the
   engine must land on the naive fixpoint's functions — every block and
   call — and facts. *)
let random_call_graph =
  QCheck.Gen.(
    let* k = int_range 2 12 in
    let callee =
      map
        (fun x ->
          if x < k then Printf.sprintf "f%d" x else if x = k then "ex" else "err")
        (int_bound (k + 1))
    in
    let op i n =
      let* c = int_bound 8
      and* t = callee
      and* l = int_bound (n - 1)
      and* halt = bool in
      return
        (match c with
        | 0 | 1 | 2 -> [ Asm.I (I.Call (I.To_label t)) ]
        | 3 | 4 ->
            [
              Asm.I (I.Mov (I.W64, I.Reg Reg.Rdi, I.Imm (c - 3)));
              Asm.I (I.Call (I.To_label "err"));
            ]
        | 5 -> [ Asm.I (I.Jmp (I.To_label t)) ]
        | 6 -> [ Asm.I (I.Jcc (I.E, I.To_label (Printf.sprintf "f%d_%d" i l))) ]
        | 7 -> [ Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Imm 7)) ]
        | _ -> [ Asm.I (if halt then I.Hlt else I.Ret) ])
    in
    let func i =
      let* n = int_range 1 5 in
      let* ops = flatten_l (List.init n (fun _ -> op i n)) in
      let* tail = int_bound 2 and* align = bool in
      return
        (Asm.Label (Printf.sprintf "f%d" i)
         :: List.concat
              (List.mapi
                 (fun j o -> o @ [ Asm.Label (Printf.sprintf "f%d_%d" i j) ])
                 ops)
        @ (match tail with 0 -> [ Asm.I I.Ret ] | 1 -> [] | _ -> [ Asm.I I.Hlt ])
        @ if align then [ Asm.Align 16 ] else [])
    in
    let* funcs = flatten_l (List.init k func) in
    let* seeds = list_size (int_range 1 3) (int_bound (k - 1)) in
    return
      ( List.concat funcs
        @ [
            Asm.Label "ex";
            Asm.I I.Hlt;
            Asm.Align 16;
            Asm.Label "err";
            Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
            Asm.I (I.Jcc (I.E, I.To_label "err_ok"));
            Asm.I I.Hlt;
            Asm.Label "err_ok";
            Asm.I I.Ret;
          ],
        List.map (Printf.sprintf "f%d") seeds ))

let prop_worklist_reference =
  QCheck.Test.make ~name:"recursive: worklist == converged loop on call graphs"
    ~count:300
    (QCheck.make random_call_graph ~print:(fun (items, seeds) ->
         Printf.sprintf "%d items, seeds %s" (List.length items)
           (String.concat "," seeds)))
    (fun (items, seeds) ->
      let img, asm = image_of items in
      let loaded = Loaded.load img in
      let seeds = List.map (label asm) seeds in
      let res = Recursive.run loaded ~seeds in
      let ref_res = Reference.recursive loaded ~seeds in
      let shape (r : Recursive.result) =
        List.map
          (fun e ->
            let f = Hashtbl.find r.funcs e in
            (List.sort compare f.blocks, List.sort compare f.calls))
          (Recursive.starts r)
      in
      Reference.signature res = Reference.signature ref_res
      && shape res = shape ref_res)

(* The answer depends on the seed set, not on the order the seeds come
   in: reversed, rotated or duplicated seeds give the same functions,
   blocks, calls, spans and facts. *)
let prop_worklist_order_free =
  QCheck.Test.make ~name:"recursive: seed order and repeats change nothing"
    ~count:300
    (QCheck.make random_call_graph ~print:(fun (items, seeds) ->
         Printf.sprintf "%d items, seeds %s" (List.length items)
           (String.concat "," seeds)))
    (fun (items, seeds) ->
      let img, asm = image_of items in
      let loaded = Loaded.load img in
      let seeds = List.map (label asm) seeds in
      let answer seeds =
        let r = Recursive.run loaded ~seeds in
        ( Reference.signature r,
          List.map
            (fun e ->
              let f = Hashtbl.find r.funcs e in
              (List.sort compare f.blocks, List.sort compare f.calls))
            (Recursive.starts r) )
      in
      let a = answer seeds in
      List.for_all
        (fun s -> answer s = a)
        [ List.rev seeds; List.tl seeds @ [ List.hd seeds ]; seeds @ List.rev seeds ])

(* [f3] tail-jumps to [f7], whose code calls [f7].  A discovery walk
   stops only at seeds, so [f3]'s runs on through [f7]'s code and keeps
   calling [f7] whether or not [f7] is an entry: [f7] stays an entry and
   [f3]'s body stops at it.  Had discovery stopped at every entry, [f7]'s
   only caller would be itself once it was an entry, so it would be
   retracted, found again, and so on without end.  Once [ex] is noreturn
   so is [f7], whose call to itself then cuts off its call to [ex]: [ex]
   is retracted, and the fact learned for it is dropped. *)
let test_worklist_self_call_through_jump () =
  let items =
    [
      Asm.Label "f3";
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Imm 1));
      Asm.I (I.Jmp (I.To_label "f7"));
      Asm.Align 16;
      Asm.Label "f7";
      Asm.I (I.Call (I.To_label "f7"));
      Asm.I (I.Call (I.To_label "ex"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "ex";
      Asm.I I.Hlt;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let seeds = [ label asm "f3" ] in
  let res = Recursive.run loaded ~seeds in
  check (Alcotest.list Alcotest.int) "f7 stays an entry, ex is retracted"
    (List.map (label asm) [ "f3"; "f7" ])
    (Recursive.starts res);
  let f3 = Hashtbl.find res.funcs (label asm "f3") in
  check Alcotest.bool "f3 stops at f7" true
    (List.map (fun (_, t) -> t) f3.out_jumps = [ label asm "f7" ]);
  check (Alcotest.list Alcotest.int) "f3 and f7 never return, ex's fact dropped"
    (List.map (label asm) [ "f3"; "f7" ])
    (Reference.keys res.noreturn);
  check Alcotest.bool "== the reference fixpoint" true
    (Reference.signature res = Reference.signature (Reference.recursive loaded ~seeds))

(* [x] and [y] call each other, and only [a] calls into the pair.  Once
   [k] is noreturn, [a]'s call to [x] is dead: each of [x] and [y] still
   has a caller, the other, but no seed reaches either, so trial
   deletion retracts both. *)
let test_worklist_dead_cycle () =
  let items =
    [
      Asm.Label "a";
      Asm.I (I.Call (I.To_label "k"));
      Asm.I (I.Call (I.To_label "x"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "k";
      Asm.I I.Hlt;
      Asm.Align 16;
      Asm.Label "x";
      Asm.I (I.Call (I.To_label "y"));
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "y";
      Asm.I (I.Call (I.To_label "x"));
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let seeds = [ label asm "a" ] in
  let res = Recursive.run loaded ~seeds in
  check (Alcotest.list Alcotest.int) "x and y retracted"
    (List.map (label asm) [ "a"; "k" ])
    (Recursive.starts res);
  check Alcotest.bool "== the reference fixpoint" true
    (Reference.signature res = Reference.signature (Reference.recursive loaded ~seeds))

(* --- jump tables --- *)

let abs_table_items =
  [
    Asm.Label "f";
    Asm.I (I.Arith (I.Cmp, I.W64, I.Reg Reg.Rdi, I.Imm 2));
    Asm.I (I.Jcc (I.A, I.To_label "default"));
    Asm.I (I.Jmp_ind (I.Mem (I.mem ~index:(Reg.Rdi, 8) ~disp:0x5000 ())));
    Asm.Label "c0";
    Asm.I I.Ret;
    Asm.Label "c1";
    Asm.I I.Ret;
    Asm.Label "c2";
    Asm.I I.Ret;
    Asm.Label "default";
    Asm.I I.Ret;
  ]

let abs_table_rodata asm =
  let b = Fetch_util.Byte_buf.create () in
  List.iter (fun l -> Fetch_util.Byte_buf.u64 b (label asm l)) [ "c0"; "c1"; "c2" ];
  Fetch_util.Byte_buf.contents b

let test_jump_table_absolute () =
  (* two-pass: assemble once to learn labels, then attach rodata *)
  let _, asm0 = image_of abs_table_items in
  let img, asm = image_of ~rodata:(abs_table_rodata asm0) abs_table_items in
  let loaded = Loaded.load img in
  (* the weak engine leaves even a bounds-checked table unresolved *)
  let weak = Recursive.run ~safe:false loaded ~seeds:[ label asm "f" ] in
  let f = Hashtbl.find weak.funcs (label asm "f") in
  check Alcotest.bool "weak: unresolved" true f.unresolved_indirect_jump;
  check Alcotest.int "weak: no tables" 0 (List.length f.table_targets);
  let res = Recursive.run loaded ~seeds:[ label asm "f" ] in
  let f = Hashtbl.find res.funcs (label asm "f") in
  check Alcotest.bool "no unresolved" false f.unresolved_indirect_jump;
  match f.table_targets with
  | [ (0x5000, targets) ] ->
      check (Alcotest.list Alcotest.int) "targets"
        [ label asm "c0"; label asm "c1"; label asm "c2" ]
        targets
  | _ -> Alcotest.fail "expected one resolved table"

(* A discovery walk that a new fact cuts short can still find a callee
   it did not find before.  [e] reaches the dispatch block [x] first by
   a jump from [p], with no bounds check in sight, so the table stays
   unresolved.  Once [k] is noreturn, [p] stops at its call, [x] is
   reached only as the fallthrough of the [cmp/ja] check, the table
   resolves, and [c0]'s call makes [z] an entry.  [g], which ran on into
   [z]'s code, must then stop at [z], which leaves it without a ret. *)
let test_worklist_rewalk_finds_callee () =
  let items =
    [
      Asm.Label "e";
      Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
      Asm.I (I.Jcc (I.E, I.To_label "p"));
      Asm.I (I.Jmp (I.To_label "check"));
      Asm.Label "p";
      Asm.I (I.Call (I.To_label "k"));
      Asm.I (I.Jmp (I.To_label "x"));
      Asm.Label "check";
      Asm.I (I.Arith (I.Cmp, I.W64, I.Reg Reg.Rdi, I.Imm 2));
      Asm.I (I.Jcc (I.A, I.To_label "default"));
      Asm.Label "x";
      Asm.I (I.Jmp_ind (I.Mem (I.mem ~index:(Reg.Rdi, 8) ~disp:0x5000 ())));
      Asm.Label "c0";
      Asm.I (I.Call (I.To_label "z"));
      Asm.I I.Ret;
      Asm.Label "c1";
      Asm.I I.Ret;
      Asm.Label "c2";
      Asm.I I.Ret;
      Asm.Label "default";
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "k";
      Asm.I I.Hlt;
      Asm.Align 16;
      Asm.Label "g";
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Imm 1));
      Asm.Label "z";
      Asm.I I.Ret;
    ]
  in
  let _, asm0 = image_of items in
  let img, asm = image_of ~rodata:(abs_table_rodata asm0) items in
  let loaded = Loaded.load img in
  let seeds = [ label asm "e"; label asm "g" ] in
  let res = Recursive.run loaded ~seeds in
  check (Alcotest.list Alcotest.int) "z found by the re-walk"
    (List.map (label asm) [ "e"; "k"; "g"; "z" ])
    (Recursive.starts res);
  check Alcotest.bool "e's table resolved" true
    ((Hashtbl.find res.funcs (label asm "e")).table_targets <> []);
  check Alcotest.bool "g stops at z, so cannot return" true
    (Hashtbl.mem res.noreturn (label asm "g"));
  check Alcotest.bool "== the reference fixpoint" true
    (Reference.signature res = Reference.signature (Reference.recursive loaded ~seeds))

let test_jump_table_unresolved_without_bound () =
  (* no cmp/ja guard: must NOT resolve (conservatism) *)
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Jmp_ind (I.Mem (I.mem ~index:(Reg.Rdi, 8) ~disp:0x5000 ())));
    ]
  in
  let img, asm = image_of ~rodata:(String.make 24 '\000') items in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "f" ] in
  let f = Hashtbl.find res.funcs (label asm "f") in
  check Alcotest.bool "unresolved" true f.unresolved_indirect_jump

let test_jump_table_rejects_bad_targets () =
  (* table entries outside the text section: rejected *)
  let b = Fetch_util.Byte_buf.create () in
  List.iter (fun v -> Fetch_util.Byte_buf.u64 b v) [ 0x1001; 0xdead0000; 0x1002 ];
  let img, asm =
    image_of ~rodata:(Fetch_util.Byte_buf.contents b) abs_table_items
  in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "f" ] in
  let f = Hashtbl.find res.funcs (label asm "f") in
  check Alcotest.bool "rejected" true f.unresolved_indirect_jump

let test_jump_table_register_load () =
  (* cmp idx, N ; ja default ; mov r, [table + idx*8] ; jmp r *)
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Arith (I.Cmp, I.W64, I.Reg Reg.Rdi, I.Imm 2));
      Asm.I (I.Jcc (I.A, I.To_label "default"));
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Mem (I.mem ~index:(Reg.Rdi, 8) ~disp:0x5000 ())));
      Asm.I (I.Jmp_ind (I.Reg Reg.Rax));
      Asm.Label "c0";
      Asm.I I.Ret;
      Asm.Label "c1";
      Asm.I I.Ret;
      Asm.Label "c2";
      Asm.I I.Ret;
      Asm.Label "default";
      Asm.I I.Ret;
    ]
  in
  let _, asm0 = image_of items in
  let rodata =
    let b = Fetch_util.Byte_buf.create () in
    List.iter
      (fun l -> Fetch_util.Byte_buf.u64 b (label asm0 l))
      [ "c0"; "c1"; "c2" ];
    Fetch_util.Byte_buf.contents b
  in
  let img, asm = image_of ~rodata items in
  let loaded = Loaded.load img in
  (* the stack-height styles differ exactly here: only [Dyninst] resolves
     the load form, so only it reaches the case blocks *)
  let case_heights style =
    let h = Stack_height.analyze loaded ~style (label asm "f") in
    List.map (fun c -> h (label asm c)) [ "c0"; "c1"; "c2" ]
  in
  check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "dyninst reaches the cases" [ Some 0; Some 0; Some 0 ]
    (case_heights Stack_height.Dyninst);
  check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "angr does not" [ None; None; None ]
    (case_heights Stack_height.Angr);
  let res = Recursive.run loaded ~seeds:[ label asm "f" ] in
  let f = Hashtbl.find res.funcs (label asm "f") in
  check Alcotest.bool "no unresolved" false f.unresolved_indirect_jump;
  match f.table_targets with
  | [ (0x5000, targets) ] ->
      check (Alcotest.list Alcotest.int) "targets"
        [ label asm "c0"; label asm "c1"; label asm "c2" ]
        targets
  | _ -> Alcotest.fail "expected one resolved table"

let pic_table_items =
  (* cmp idx, N ; ja default ; lea rt, [rip+table] ;
     movsxd rx, [rt + idx*4] ; add rx, rt ; jmp rx *)
  [
    Asm.Label "f";
    Asm.I (I.Arith (I.Cmp, I.W64, I.Reg Reg.Rdi, I.Imm 2));
    Asm.I (I.Jcc (I.A, I.To_label "default"));
    Asm.I (I.Lea (Reg.Rbx, I.rip_sym (I.To_addr 0x5000)));
    Asm.I (I.Movsxd (Reg.Rcx, I.mem ~base:Reg.Rbx ~index:(Reg.Rdi, 4) ()));
    Asm.I (I.Arith (I.Add, I.W64, I.Reg Reg.Rcx, I.Reg Reg.Rbx));
    Asm.I (I.Jmp_ind (I.Reg Reg.Rcx));
    Asm.Label "c0";
    Asm.I I.Ret;
    Asm.Label "c1";
    Asm.I I.Ret;
    Asm.Label "c2";
    Asm.I I.Ret;
    Asm.Label "default";
    Asm.I I.Ret;
  ]

let test_jump_table_pic_add () =
  let _, asm0 = image_of pic_table_items in
  let rodata =
    (* 32-bit offsets relative to the table base *)
    let b = Fetch_util.Byte_buf.create () in
    List.iter
      (fun l -> Fetch_util.Byte_buf.u32 b ((label asm0 l - 0x5000) land 0xffffffff))
      [ "c0"; "c1"; "c2" ];
    Fetch_util.Byte_buf.contents b
  in
  let img, asm = image_of ~rodata pic_table_items in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "f" ] in
  let f = Hashtbl.find res.funcs (label asm "f") in
  check Alcotest.bool "no unresolved" false f.unresolved_indirect_jump;
  match f.table_targets with
  | [ (0x5000, targets) ] ->
      check (Alcotest.list Alcotest.int) "targets"
        [ label asm "c0"; label asm "c1"; label asm "c2" ]
        targets
  | _ -> Alcotest.fail "expected one resolved table"

let test_jump_table_opaque_register () =
  (* jmp through a register whose value is no table load: stays
     unresolved no matter the bound check *)
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Arith (I.Cmp, I.W64, I.Reg Reg.Rdi, I.Imm 2));
      Asm.I (I.Jcc (I.A, I.To_label "default"));
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.Rdi));
      Asm.I (I.Jmp_ind (I.Reg Reg.Rax));
      Asm.Label "default";
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "f" ] in
  let f = Hashtbl.find res.funcs (label asm "f") in
  check Alcotest.bool "unresolved" true f.unresolved_indirect_jump

(* --- calling convention --- *)

let validate_items items =
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  (* no noreturn facts: every call falls through *)
  let res = Recursive.run loaded ~seeds:[] in
  (Callconv.validate loaded res (label asm "f"), asm)

let test_callconv_accepts_args () =
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.Rdi));
        Asm.I (I.Arith (I.Add, I.W64, I.Reg Reg.Rax, I.Reg Reg.Rsi));
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "args ok" true (Result.is_ok v)

let test_callconv_rejects_uninit_read () =
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.Rbx));
        (* rbx: non-argument, never written *)
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "uninit rbx rejected" true (Result.is_error v)

let test_callconv_push_is_save_not_use () =
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Push Reg.Rbp);
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rbp, I.Reg Reg.Rsp));
        Asm.I (I.Push Reg.Rbx);
        Asm.I (I.Pop Reg.Rbx);
        Asm.I (I.Pop Reg.Rbp);
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "standard prologue valid" true (Result.is_ok v)

let test_callconv_write_then_read () =
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W32, I.Reg Reg.Rbx, I.Imm 7));
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.Rbx));
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "write-then-read valid" true (Result.is_ok v)

let test_callconv_call_defines_rax () =
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Call (I.To_label "g"));
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rdx, I.Reg Reg.Rax));
        Asm.I I.Ret;
        Asm.Label "g";
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "rax defined by call" true (Result.is_ok v)

let test_callconv_branch_violation () =
  (* violation hides behind a branch: still caught *)
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
        Asm.I (I.Jcc (I.E, I.To_label "bad"));
        Asm.I I.Ret;
        Asm.Label "bad";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.R12));
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "branch violation caught" true (Result.is_error v)

(* The residual class of the "FETCH invariants on random corpora"
   property: synth code keeps a value in r11 across a call inside a loop.
   The first iteration reads the value; the back edge arrives with r11
   clobbered by the call, so the second read is a real violation.  A
   forwarder that tail-jumps into such a function inherits it. *)
let test_callconv_loop_call_clobbers_r11 () =
  let items =
    [
      Asm.Label "thunk";
      Asm.I (I.Jmp (I.To_label "f"));
      Asm.Label "f";
      Asm.I (I.Push Reg.Rbx);
      Asm.I (I.Mov (I.W64, I.Reg Reg.R11, I.Reg Reg.Rdi));
      Asm.I (I.Mov (I.W32, I.Reg Reg.Rbx, I.Imm 3));
      Asm.Label "loop";
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rdi, I.Reg Reg.R11));
      Asm.I (I.Call (I.To_label "g"));
      Asm.I (I.Dec Reg.Rbx);
      Asm.I (I.Jcc (I.Ne, I.To_label "loop"));
      Asm.I (I.Pop Reg.Rbx);
      Asm.I I.Ret;
      Asm.Label "g";
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let expect entry =
    match
      Callconv.validate loaded (Recursive.run loaded ~seeds:[]) (label asm entry)
    with
    | Error { at; reg = Some r } ->
        check Alcotest.int (entry ^ ": violation at the loop head")
          (label asm "loop") at;
        check Alcotest.string (entry ^ ": clobbered register") "r11"
          (Reg.name64 r)
    | Error { reg = None; _ } -> Alcotest.failf "%s: undecodable" entry
    | Ok () -> Alcotest.failf "%s: clobbered r11 read accepted" entry
  in
  expect "f";
  expect "thunk"

(* --- stack height --- *)

let test_stack_height_basic () =
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Push Reg.Rbx);
      Asm.I (I.Arith (I.Sub, I.W64, I.Reg Reg.Rsp, I.Imm 24));
      Asm.Label "body";
      Asm.I (I.Nop 1);
      Asm.I (I.Arith (I.Add, I.W64, I.Reg Reg.Rsp, I.Imm 24));
      Asm.I (I.Pop Reg.Rbx);
      Asm.Label "end";
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let h =
    Stack_height.analyze loaded ~style:Stack_height.Dyninst (label asm "f")
  in
  check (Alcotest.option Alcotest.int) "entry" (Some 0)
    (h (label asm "f"));
  check (Alcotest.option Alcotest.int) "body" (Some 32)
    (h (label asm "body"));
  check (Alcotest.option Alcotest.int) "at ret" (Some 0)
    (h (label asm "end"))

let test_stack_height_untrackable () =
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rsp, I.Reg Reg.Rbp));
      Asm.Label "after";
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let h =
    Stack_height.analyze loaded ~style:Stack_height.Dyninst (label asm "f")
  in
  check (Alcotest.option Alcotest.int) "abandoned after mov rsp" None
    (h (label asm "after"))

(* --- linear sweep and prologue matching --- *)

let test_linear_sweep_resync () =
  let items =
    [ Asm.Label "f"; Asm.Raw "\xff\xff"; Asm.I I.Ret; Asm.I (I.Nop 2) ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let lo = label asm "f" in
  let insns, junk = Linear_sweep.decode_range loaded ~lo ~hi:(lo + 5) in
  check Alcotest.bool "skipped junk" true (List.length junk >= 1);
  check Alcotest.bool "recovered ret" true
    (List.exists (fun (_, _, i) -> i = I.Ret) insns)

let test_prologue_strict_vs_loose () =
  let items =
    [
      Asm.Label "pad";
      Asm.I I.Ret;
      Asm.Align 16;
      Asm.Label "framed";
      Asm.I (I.Push Reg.Rbp);
      Asm.I (I.Mov (I.W64, I.Reg Reg.Rbp, I.Reg Reg.Rsp));
      Asm.I I.Ret;
    ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  check Alcotest.bool "strict matches frame setup" true
    (Prologue.matches loaded ~strictness:Prologue.Strict (label asm "framed"));
  check Alcotest.bool "strict rejects bare ret" false
    (Prologue.matches loaded ~strictness:Prologue.Strict (label asm "pad"));
  check Alcotest.bool "loose matches push" true
    (Prologue.matches loaded ~strictness:Prologue.Loose (label asm "framed"))

let test_gaps () =
  let items =
    [ Asm.Label "f"; Asm.I I.Ret; Asm.Align 16; Asm.Label "g"; Asm.I I.Ret ]
  in
  let img, asm = image_of items in
  let loaded = Loaded.load img in
  let res = Recursive.run loaded ~seeds:[ label asm "f" ] in
  (* g not seeded: padding + g form the gap *)
  let gaps = Linear_sweep.gaps loaded ~covered:res.insn_spans in
  check Alcotest.int "one gap" 1 (List.length gaps);
  let lo, hi = List.hd gaps in
  check Alcotest.int "gap starts after f" (label asm "f" + 1) lo;
  check Alcotest.int "gap ends at text end" (label asm "g" + 1) hi;
  check Alcotest.int "leading padding" 15
    (Linear_sweep.leading_padding loaded ~lo ~hi)

(* --- the decode table --- *)

(* Synth draws under both compilers, and every adversarial scenario:
   their text holds data pools, jump tables and padding as well as code. *)
let table_images =
  lazy
    (List.map
       (fun (compiler, seed) ->
         (Fetch_synth.Link.build_random
            ~profile:(Fetch_synth.Profile.make compiler Fetch_synth.Profile.O2)
            ~seed Fetch_synth.Gen.default_spec)
           .image)
       [ (Fetch_synth.Profile.Synthgcc, 3); (Fetch_synth.Profile.Synthllvm, 4) ]
    @ List.map
        (fun sc -> (Fetch_synth.Adversary.build sc ~seed:2026).image)
        Fetch_synth.Adversary.all)

(* Every offset of every executable section, mid-instruction and
   data-in-text offsets and a section's last 15 bytes included, plus one
   byte either side of it, looked up in shuffled order so a slot cannot
   depend on which offsets were filled before it: each slot holds what
   the decoder and [Semantics] say, and nothing is decoded twice. *)
let test_table_matches_decoder () =
  let rng = Random.State.make [| 25 |] in
  List.iter
    (fun img ->
      let loaded = Loaded.load img in
      let tbl = loaded.Loaded.table in
      let expected a =
        List.find_map
          (fun (s : Fetch_elf.Image.section) ->
            if a >= s.addr && a < s.addr + String.length s.data then
              Some (Decode.decode ~pos:(a - s.addr) ~addr:a s.data)
            else None)
          loaded.Loaded.exec
      in
      let addrs =
        Array.of_list
          (List.concat_map
             (fun (lo, hi) -> List.init (hi - lo + 2) (fun i -> lo - 1 + i))
             (Loaded.text_ranges loaded))
      in
      for i = Array.length addrs - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = addrs.(i) in
        addrs.(i) <- addrs.(j);
        addrs.(j) <- x
      done;
      let in_text = ref 0 in
      Array.iter
        (fun a ->
          let s = Insn_table.find tbl a in
          match expected a with
          | None -> if s <> -1 then Alcotest.failf "%#x: a slot outside the text" a
          | Some None ->
              incr in_text;
              if s <> -1 then Alcotest.failf "%#x: a slot for no instruction" a
          | Some (Some (insn, len)) ->
              incr in_text;
              if
                s < 0
                || Insn_table.insn tbl s <> insn
                || Insn_table.len tbl s <> len
                || Insn_table.flow tbl s <> Semantics.flow insn
                || Insn_table.uses tbl s <> Reg.mask (Semantics.uses insn)
                || Insn_table.defs tbl s <> Semantics.defs insn
              then Alcotest.failf "%#x: the slot disagrees with the decoder" a)
        addrs;
      let decoded = Insn_table.decoded tbl in
      Array.iter (fun a -> ignore (Insn_table.find tbl a)) addrs;
      check Alcotest.int "each text offset decoded once" !in_text decoded;
      check Alcotest.int "a second lookup decodes nothing" decoded
        (Insn_table.decoded tbl))
    (Lazy.force table_images)

(* Inside a trace run, [Loaded.cache] binds exactly the offsets the table
   decoded; outside one it stays empty. *)
let test_table_trace_cache () =
  let img = List.hd (Lazy.force table_images) in
  let detect () =
    let loaded = Loaded.load img in
    ignore (Fetch_core.Lint.run (Fetch_core.Pipeline.run_loaded loaded));
    loaded
  in
  check Alcotest.int "no binding outside a trace run" 0
    (Hashtbl.length (detect ()).Loaded.cache);
  let loaded, _ = Fetch_obs.Trace.with_run detect in
  let tbl = loaded.Loaded.table in
  check Alcotest.bool "the run decoded something" true
    (Insn_table.decoded tbl > 0);
  check Alcotest.int "one binding per decoded offset" (Insn_table.decoded tbl)
    (Hashtbl.length loaded.Loaded.cache);
  (* a bound offset is decoded already; any other text offset is not *)
  List.iter
    (fun (lo, hi) ->
      for a = lo to hi - 1 do
        let before = Insn_table.decoded tbl in
        ignore (Insn_table.find tbl a);
        let bound = Hashtbl.mem loaded.Loaded.cache a in
        if Insn_table.decoded tbl <> if bound then before else before + 1 then
          Alcotest.failf "%#x: bound %b, but decoded %s" a bound
            (if bound then "again" else "before")
      done)
    (Loaded.text_ranges loaded)

(* The cached-block walk is the per-instruction walk of
   [Reference.walk], on random call graphs: noreturn chains, [error]
   calls, retractions and bodies stopping at a non-seed entry cut and
   split blocks in every way.  With every function seeded, a function
   that falls into the next one runs into a seed in mid-block. *)
let prop_block_walk_reference =
  QCheck.Test.make ~name:"blocks: block walk == instruction walk on call graphs"
    ~count:300
    (QCheck.make random_call_graph ~print:(fun (items, seeds) ->
         Printf.sprintf "%d items, seeds %s" (List.length items)
           (String.concat "," seeds)))
    (fun (items, seeds) ->
      let img, asm = image_of items in
      let loaded = Loaded.load img in
      let seeds = List.map (label asm) seeds in
      let every =
        List.filter_map
          (function
            | Asm.Label l when l.[0] = 'f' && not (String.contains l '_') ->
                Some (label asm l)
            | _ -> None)
          items
      in
      Reference.walks_agree loaded ~seeds
      && Reference.warm_like_fresh loaded ~seeds
      && Reference.walks_agree (Loaded.load img) ~seeds:every)

(* ... and on every adversarial scenario and two synth draws, from the
   FDE and symbol seeds: data pools, jump tables and padding in text. *)
let test_block_walk_adversarial () =
  List.iter
    (fun img ->
      let loaded = Loaded.load img in
      check Alcotest.bool "walks agree" true
        (Reference.walks_agree loaded ~seeds:loaded.Loaded.seeds))
    (Lazy.force table_images)

(* A function with [n] conditional jumps and then [n] calls, each to an
   address of its own in a run of undecodable bytes: [f: je u_i ...;
   call v_i ...; ret].  The walk of [f] meets [2n] addresses with no
   instruction, and each [v_i] becomes an entry walked once.  Telling
   whether such an address was met before must cost a lookup, not a scan
   of those met so far: quadrupling [n] at most quadruples the walks,
   and takes a run at most ten times as long, where a scan would make
   it about sixteen; the rest is room for tables growing and timer
   noise. *)
let odd_targets_image n =
  let u i = Printf.sprintf "u%d" i and v i = Printf.sprintf "v%d" i in
  let items =
    (Asm.Label "f" :: List.init n (fun i -> Asm.I (I.Jcc (I.E, I.To_label (u i)))))
    @ List.init n (fun i -> Asm.I (I.Call (I.To_label (v i))))
    @ [ Asm.I I.Ret ]
    @ List.concat_map (fun l -> [ Asm.Label l; Asm.Raw "\xff" ]) (List.init n u @ List.init n v)
    @ [ Asm.Raw "\xff" ]
  in
  let img, asm = image_of items in
  (Loaded.load img, label asm "f", List.init n (fun i -> label asm (v i)))

let test_rec_odd_targets_linear () =
  let work n =
    let loaded, f, callees = odd_targets_image n in
    let res, rep =
      Fetch_obs.Trace.with_run (fun () -> Recursive.run loaded ~seeds:[ f ])
    in
    let fn = Hashtbl.find res.funcs f in
    check Alcotest.int (Printf.sprintf "n=%d: every call kept" n) n (List.length fn.calls);
    check Alcotest.bool (Printf.sprintf "n=%d: every callee an entry" n) true
      (List.for_all (Hashtbl.mem res.funcs) callees);
    let walks =
      Option.value ~default:0
        (List.assoc_opt "recursive.functions_disassembled" rep.counters)
    in
    check Alcotest.bool
      (Printf.sprintf "n=%d: %d walks <= 2n + 4" n walks)
      true
      (walks <= (2 * n) + 4);
    (* the best of five runs on the warm load *)
    let time () =
      let t0 = Unix.gettimeofday () in
      ignore (Recursive.run loaded ~seeds:[ f ]);
      Unix.gettimeofday () -. t0
    in
    (walks, List.fold_left min infinity (List.init 5 (fun _ -> time ())))
  in
  let walks, secs = work 4000 in
  let walks4, secs4 = work 16000 in
  check Alcotest.bool "quadrupling n at most quadruples the walks" true
    (walks4 <= (4 * walks) + 4);
  check Alcotest.bool
    (Printf.sprintf "quadrupling n: %.4f s -> %.4f s, at most ten times" secs secs4)
    true
    (secs4 <= (10. *. secs) +. 0.01)

(* [error]-style detection counts the instructions other than syscalls
   on the nonzero path, across block boundaries: [f: test rdi, rdi; je z;
   (syscall; nop) x k; hlt; z: ret] is conditionally noreturn for k up
   to seven, not for eight.  With [split], a start in the middle of the
   path cuts it into two blocks first. *)
let test_rec_cond_noreturn_bound () =
  List.iter
    (fun (k, split) ->
      let items =
        [
          Asm.Label "f";
          Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
          Asm.I (I.Jcc (I.E, I.To_label "z"));
        ]
        @ List.concat
            (List.init k (fun i ->
                 [ Asm.Label (Printf.sprintf "p%d" i); Asm.I I.Syscall; Asm.I (I.Nop 1) ]))
        @ [ Asm.I I.Hlt; Asm.Label "z"; Asm.I I.Ret ]
      in
      let img, asm = image_of items in
      let loaded = Loaded.load img in
      if split then ignore (Block_table.start loaded.blocks (label asm "p3"));
      let f = label asm "f" in
      let name = Printf.sprintf "k=%d split=%b" k split in
      check Alcotest.bool name (k <= 7) (Recursive.detect_cond_noreturn loaded f);
      check Alcotest.bool (name ^ ": == reference")
        (Reference.detect_cond_noreturn loaded f)
        (Recursive.detect_cond_noreturn loaded f))
    [ (6, false); (7, false); (8, false); (7, true); (8, true) ]

(* Each lattice's [body] over a cached block equals its [transfer]
   folded over the block's body one instruction at a time: [None]
   exactly when an instruction drops the path or fails, the same state
   otherwise.  Every block of the synth and adversarial images, after a
   pipeline run and its lint built and split them, from several states
   each. *)
let test_body_summaries () =
  let module Df = Fetch_check.Dataflow in
  let module Height = Fetch_check.Lint.Height in
  let fold (type s f) transfer (bt : Block_table.t) k (st : s) : s option =
    let tbl = Block_table.table bt in
    let rec go a i (st : s) =
      if i = 0 then Some st
      else
        let s = Insn_table.find tbl a in
        match (transfer tbl ~addr:a s st : (s, f) Df.step) with
        | Df.Step st -> go (a + Insn_table.len tbl s) (i - 1) st
        | Df.Drop | Df.Fatal _ -> None
    in
    go (Block_table.lo bt k) (Block_table.body_insns bt k) st
  in
  let masks =
    [ 0; Reg.args_mask; 0xffff; Reg.callee_saved_mask; Reg.mask [ Reg.Rax; Reg.Rbx ] ]
  in
  let regs =
    List.concat_map
      (fun init ->
        List.map
          (fun arg -> { Callconv.init; arg })
          [ Recursive.Zero; Recursive.Nonzero; Recursive.Unknown ])
      masks
  in
  List.iter
    (fun img ->
      let r = Fetch_core.Pipeline.run img in
      ignore (Fetch_core.Lint.run r);
      let bt = r.loaded.Loaded.blocks in
      for k = 0 to Block_table.count bt - 1 do
        let at = Printf.sprintf "block at %#x" (Block_table.lo bt k) in
        List.iter
          (fun st ->
            check Alcotest.bool (at ^ ": registers") true
              (Callconv.Lattice.body bt k st = fold Callconv.Lattice.transfer bt k st))
          regs;
        List.iter
          (fun h ->
            check (Alcotest.option Alcotest.int) (at ^ ": height")
              (fold Stack_height.Lattice.transfer bt k h)
              (Stack_height.Lattice.body bt k h))
          [ 0; 24 ];
        List.iter
          (fun st ->
            check Alcotest.bool (at ^ ": flat height") true
              (Height.body bt k st = fold Height.transfer bt k st))
          [ Height.Known 0; Height.Known (-40); Height.Top ]
      done)
    (Lazy.force table_images)

let suite =
  [
    Alcotest.test_case "rec: follows calls" `Quick test_rec_follows_calls;
    Alcotest.test_case "rec: stops after noreturn call" `Quick test_rec_stops_at_noreturn_call;
    Alcotest.test_case "rec: no tail-call guessing" `Quick test_rec_no_tail_guessing;
    Alcotest.test_case "rec: intra jump extends function" `Quick test_rec_intra_jump_extends;
    Alcotest.test_case "recursive: the first argument dies at a call" `Quick
      test_rec_first_arg_dies_at_call;
    Alcotest.test_case "extend: equals from-scratch run" `Quick test_extend_equals_run;
    Alcotest.test_case "extend: known seeds are a no-op" `Quick test_extend_known_seed_noop;
    Alcotest.test_case "extend: consults prior noreturn facts" `Quick test_extend_uses_noreturn_facts;
    Alcotest.test_case "extend: re-fixpoints delta noreturn" `Quick test_extend_refixpoints_delta_noreturn;
    Alcotest.test_case "worklist: hostile call chain is linear" `Quick
      test_worklist_hostile_chain;
    Alcotest.test_case "worklist: chain with private leaves is linear" `Quick
      (leaf_chain_linear ~shared:false);
    Alcotest.test_case "worklist: leaf chains == converged loop" `Quick
      test_worklist_leaf_chain_reference;
    Alcotest.test_case "worklist: dead callee retracted" `Quick
      test_worklist_retracts_dead_callee;
    Alcotest.test_case "worklist: entry moving into a kept walk" `Quick
      test_worklist_entry_moves_into_kept_walk;
    Alcotest.test_case "worklist: cut callees, one still called" `Quick
      test_worklist_cut_callees;
    QCheck_alcotest.to_alcotest prop_worklist_reference;
    Alcotest.test_case "jump table: absolute form" `Quick test_jump_table_absolute;
    Alcotest.test_case "jump table: needs bound check" `Quick test_jump_table_unresolved_without_bound;
    Alcotest.test_case "jump table: bad targets rejected" `Quick test_jump_table_rejects_bad_targets;
    Alcotest.test_case "jump table: register-load form" `Quick test_jump_table_register_load;
    Alcotest.test_case "jump table: PIC add form" `Quick test_jump_table_pic_add;
    Alcotest.test_case "jump table: opaque register unresolved" `Quick test_jump_table_opaque_register;
    Alcotest.test_case "callconv: arguments allowed" `Quick test_callconv_accepts_args;
    Alcotest.test_case "callconv: uninit read rejected" `Quick test_callconv_rejects_uninit_read;
    Alcotest.test_case "callconv: push is a save" `Quick test_callconv_push_is_save_not_use;
    Alcotest.test_case "callconv: write-then-read" `Quick test_callconv_write_then_read;
    Alcotest.test_case "callconv: call defines rax" `Quick test_callconv_call_defines_rax;
    Alcotest.test_case "callconv: branch violations caught" `Quick test_callconv_branch_violation;
    Alcotest.test_case "callconv: r11 across a loop's call is clobbered" `Quick
      test_callconv_loop_call_clobbers_r11;
    Alcotest.test_case "stack height: push/sub/add/pop" `Quick test_stack_height_basic;
    Alcotest.test_case "stack height: untrackable writes" `Quick test_stack_height_untrackable;
    Alcotest.test_case "linear sweep resynchronizes" `Quick test_linear_sweep_resync;
    Alcotest.test_case "prologue strict vs loose" `Quick test_prologue_strict_vs_loose;
    Alcotest.test_case "gap enumeration" `Quick test_gaps;
    Alcotest.test_case "decode table: every offset matches the decoder" `Quick
      test_table_matches_decoder;
    Alcotest.test_case "decode table: the trace cache binds each decode" `Quick
      test_table_trace_cache;
    Alcotest.test_case "worklist: chain with shared leaves is linear" `Quick
      (leaf_chain_linear ~shared:true);
    QCheck_alcotest.to_alcotest prop_worklist_order_free;
    Alcotest.test_case "worklist: a self-call through a tail jump ends" `Quick
      test_worklist_self_call_through_jump;
    Alcotest.test_case "worklist: a re-walk can find a new callee" `Quick
      test_worklist_rewalk_finds_callee;
    Alcotest.test_case "worklist: a dead call cycle is retracted" `Quick
      test_worklist_dead_cycle;
    QCheck_alcotest.to_alcotest prop_block_walk_reference;
    Alcotest.test_case "blocks: block walk == instruction walk, adversarial" `Quick
      test_block_walk_adversarial;
    Alcotest.test_case "rec: undecodable jump and call targets are linear" `Quick
      test_rec_odd_targets_linear;
    Alcotest.test_case "rec: error-style path bound, across blocks" `Quick
      test_rec_cond_noreturn_bound;
    Alcotest.test_case "blocks: body summaries == per-instruction fold" `Quick
      test_body_summaries;
  ]
