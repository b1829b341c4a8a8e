(** Random program generator.

    Produces an {!Ir.program} whose construct mix follows a {!Profile.t}
    and a binary {!spec}.  The spec pins the counts that the paper's
    experiments measure directly: how many assembly functions lack FDEs and
    how each of them is (or is not) referenced, whether the binary keeps
    symbols, and whether it contains hand-broken CFI (Fig. 6b). *)

open Ir

type spec = {
  n_funcs : int;  (** regular compiler-generated functions *)
  n_asm_called : int;  (** asm fns without FDE, reachable by direct call *)
  n_asm_tailonly : int;  (** without FDE, reachable only via one tail call *)
  n_asm_pointer : int;  (** without FDE, referenced from a data pointer *)
  n_asm_code_ptr : int;  (** without FDE, address taken as a code constant *)
  n_asm_unreachable : int;  (** without FDE, never referenced; each drags
                                one equally-unreachable callee along *)
  n_broken_fde : int;  (** Fig. 6b style hand-broken FDEs *)
  cxx : bool;
  strip : bool;
}

let default_spec =
  {
    n_funcs = 60;
    n_asm_called = 0;
    n_asm_tailonly = 0;
    n_asm_pointer = 0;
    n_asm_code_ptr = 0;
    n_asm_unreachable = 0;
    n_broken_fde = 0;
    cxx = false;
    strip = true;
  }

open Fetch_util

(* Scratch statement generator: a small structured body.  [depth] bounds
   nesting; [callees] are candidate direct-call targets; [allow_return]
   permits early returns (inside branches, like real error paths). *)
let rec gen_stmts rng (p : Profile.t) ~depth ?(allow_return = false) ~callees
    ~n_slots acc n =
  if n <= 0 then List.rev acc
  else
    let pick_call () =
      match callees with
      | [] -> Compute (1 + Prng.int rng 4)
      | cs -> Call (Prng.choice_list rng cs)
    in
    let stmt =
      Prng.weighted rng
        [
          (3.0, `Compute);
          (2.0, `Call);
          ((if n_slots > 0 then 0.6 else 0.0), `Call_pointer);
          ((if n_slots > 0 then 0.5 else 0.0), `Store);
          ((if depth > 0 then 1.0 else 0.0), `If);
          ((if depth > 0 then 0.7 else 0.0), `Loop);
          ((if depth > 0 then p.p_switch *. 10.0 else 0.0), `Switch);
          ((if allow_return then 0.8 else 0.0), `Ret);
        ]
    in
    let s =
      match stmt with
      | `Compute -> Compute (1 + Prng.int rng (int_of_float (6.0 *. p.body_scale) + 1))
      | `Call -> pick_call ()
      | `Call_pointer -> Call_pointer (Prng.int rng n_slots)
      | `Store -> Store (Prng.int rng n_slots)
      | `Ret -> Return
      | `If ->
          let a =
            gen_stmts rng p ~depth:(depth - 1) ~allow_return:true ~callees
              ~n_slots [] (1 + Prng.int rng 2)
          in
          let b =
            if Prng.chance rng 0.6 then
              gen_stmts rng p ~depth:(depth - 1) ~allow_return:true ~callees
                ~n_slots [] (1 + Prng.int rng 2)
            else []
          in
          If (a, b)
      | `Loop ->
          Loop
            ( 2 + Prng.int rng 6,
              gen_stmts rng p ~depth:(depth - 1) ~callees ~n_slots []
                (1 + Prng.int rng 2) )
      | `Switch ->
          let cases = 3 + Prng.int rng 5 in
          Switch
            ( cases,
              Array.init cases (fun _ ->
                  gen_stmts rng p ~depth:0 ~allow_return:true ~callees ~n_slots
                    [] (1 + Prng.int rng 2)) )
    in
    gen_stmts rng p ~depth ~allow_return ~callees ~n_slots (s :: acc) (n - 1)

let pick_saves rng =
  let pool = [| Fetch_x86.Reg.Rbx; R12; R13; R14; R15 |] in
  let n = Prng.int rng 3 in
  let chosen = Array.sub pool 0 (min n (Array.length pool)) in
  Array.to_list chosen

let gen_frame rng (p : Profile.t) =
  if Prng.chance rng p.p_frameless then (Frameless, [])
  else
    let saves = pick_saves rng in
    let size = 8 * (1 + Prng.int rng 6) in
    if Prng.chance rng p.p_rbp_frame then (Rbp_frame size, saves)
    else (Rsp_frame size, saves)

(* A regular compiled function.  [must_call] are guaranteed call sites
   (emitted first, before anything noreturn inference could truncate). *)
let gen_regular rng (p : Profile.t) ~name ~callees ?(must_call = [])
    ?(cxx = false) ~tail_target ~n_slots () =
  let frame, saves = gen_frame rng p in
  let params = Prng.int rng 4 in
  let n_stmts =
    1 + Prng.int rng (max 1 (int_of_float (5.0 *. p.body_scale)))
  in
  let body =
    List.map (fun c -> Call c) must_call
    @ gen_stmts rng p ~depth:2 ~callees ~n_slots [] n_stmts
  in
  (* C++ functions: some wrap part of the body in a try with a cleanup
     landing pad (an LSDA call site + out-of-flow code). *)
  let body =
    if cxx && Prng.chance rng 0.3 then
      let protected_ =
        gen_stmts rng p ~depth:1 ~callees ~n_slots [] (1 + Prng.int rng 2)
      in
      let cleanup =
        Compute (1 + Prng.int rng 3)
        ::
        (match callees with
        | c :: _ when Prng.chance rng 0.4 -> [ Call c ]
        | _ -> [])
      in
      Try (protected_, cleanup) :: body
    else body
  in
  (* Hot/cold split: only framed functions, per real compilers; the cold
     part reads a live callee-saved register, so splitting forces at least
     one save. *)
  let framed = match frame with Frameless -> false | _ -> true in
  let split = framed && Prng.chance rng p.p_cold_split in
  let saves = if split && saves = [] then [ Fetch_x86.Reg.Rbx ] else saves in
  let body =
    if split then
      let cold =
        gen_stmts rng p ~depth:1 ~callees ~n_slots [] (1 + Prng.int rng 3)
      in
      Cold_jump cold :: body
    else body
  in
  (* A loop counter that is live across calls is kept in a callee-saved
     register (the way a register allocator would assign it), so such a
     body forces at least one save. *)
  let saves =
    if stmts_have_call_loop body && saves = [] then [ Fetch_x86.Reg.Rbx ]
    else saves
  in
  (* Terminal statement.  Most noreturn calls sit behind a condition (the
     `if (err) fatal();` shape); only a few functions are outright
     noreturn wrappers. *)
  let terminal =
    match tail_target with
    | Some t -> [ Tail_call t ]
    | None ->
        if Prng.chance rng p.p_noreturn_call then
          let target =
            if Prng.chance rng 0.5 then "abort_like" else "fatal_exit"
          in
          if Prng.chance rng 0.3 then [ Call_noreturn target ]
          else [ If ([ Compute 1; Call_noreturn target ], []); Return ]
        else if Prng.chance rng 0.08 then
          if Prng.bool rng then [ Call_error true; Return ]
          else [ Call_error false ]
        else [ Return ]
  in
  let entry_jump = Prng.chance rng p.p_entry_jump && frame = Frameless in
  let entry_nops =
    if Prng.chance rng p.p_entry_nops then 2 + (2 * Prng.int rng 3) else 0
  in
  make_func ~name ~params ~frame ~saves ~align:p.align ~endbr:p.endbr
    ~entry_jump ~entry_nops (body @ terminal)

(* Assembly-style function: short, frameless, no compiler idioms. *)
let gen_asm rng ~name ~emit_fde ?(broken_fde = false) ?(callee = None) () =
  let body =
    let core = [ Compute (2 + Prng.int rng 5) ] in
    let core = match callee with Some c -> core @ [ Call c ] | None -> core in
    core @ [ Return ]
  in
  make_func ~name ~params:(1 + Prng.int rng 2) ~frame:Frameless ~saves:[]
    ~is_assembly:true ~emit_fde ~broken_fde ~align:16 ~endbr:false body

let runtime_funcs ~cxx =
  let exit_fn =
    (* mov eax, 60; syscall; then a guard ud2 *)
    make_func ~name:"fatal_exit" ~params:1 ~noreturn:true
      [ Compute 2; Return ]
  in
  let abort_fn =
    make_func ~name:"abort_like" ~params:0 ~noreturn:true [ Compute 1; Return ]
  in
  let error_fn =
    make_func ~name:"error_like" ~params:2 ~conditional_noreturn:true
      [ Compute 2; Return ]
  in
  let cxx_fns =
    if cxx then
      [
        make_func ~name:"cxa_throw_like" ~params:2 ~noreturn:true
          [ Compute 3; Call_noreturn "abort_like" ];
        (* the personality routine every C++ CIE points at *)
        make_func ~name:"__gxx_personality_v0" ~params:4
          ~frame:(Rsp_frame 24) [ Compute 6; Return ];
      ]
    else []
  in
  [ exit_fn; abort_fn; error_fn ] @ cxx_fns

(* Noreturn inference and dead-code elimination, as an optimizing compiler
   does within a translation unit: compute the set of functions that can
   never return (fixpoint over the call graph), then truncate everything
   after a call to such a function.  Without this, the generator would emit
   live-looking code after calls that can never return — code no real
   compiler keeps at -O2. *)
module Noreturn_infer = struct
  module SS = Set.Make (String)

  (* Does the statement list fall off its end, and which returns / tail
     targets are reachable?  [nr] is the current noreturn assumption. *)
  let rec walk nr stmts =
    let falls = ref true in
    let has_ret = ref false in
    let tails = ref [] in
    List.iter
      (fun s ->
        if !falls then
          match s with
          | Compute _ | Call_pointer _ | Store _ | Call_reg_pointer _ -> ()
          | Call c -> if SS.mem c nr then falls := false
          | Call_noreturn _ -> falls := false
          | Call_error returns -> if not returns then falls := false
          | Return ->
              has_ret := true;
              falls := false
          | Tail_call t ->
              tails := t :: !tails;
              falls := false
          | If (a, b) ->
              let fa, ra, ta = walk nr a in
              let fb, rb, tb = walk nr b in
              has_ret := !has_ret || ra || rb;
              tails := ta @ tb @ !tails;
              falls := fa || fb
          | Loop (_, body) ->
              let fb, rb, tb = walk nr body in
              has_ret := !has_ret || rb;
              tails := tb @ !tails;
              falls := fb
          | Switch (_, cases) ->
              Array.iter
                (fun c ->
                  let _, rc, tc = walk nr c in
                  has_ret := !has_ret || rc;
                  tails := tc @ !tails)
                cases
              (* the default path always falls through *)
          | Try (body, lp) ->
              let fb, rb, tb = walk nr body in
              let _, rl, tl = walk nr lp in
              has_ret := !has_ret || rb || rl;
              tails := tb @ tl @ !tails;
              falls := fb
          | Cold_jump cold ->
              let _, rc, tc = walk nr cold in
              has_ret := !has_ret || rc;
              tails := tc @ !tails)
      stmts;
    (!falls, !has_ret, !tails)

  (* "Returns" is a least fixpoint: a function returns only when it
     provably reaches a ret (or falls off its end), possibly through a
     chain of tail calls.  Tail-call cycles with no other exit are
     therefore noreturn — they really are infinite loops. *)
  let returns_set nr funcs =
    let returns = ref SS.empty in
    List.iter
      (fun f ->
        if f.conditional_noreturn || f.entry_jump then
          returns := SS.add f.name !returns)
      funcs;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun f ->
          if (not (SS.mem f.name !returns)) && not f.noreturn then begin
            let falls, has_ret, tails = walk nr f.body in
            if
              falls || has_ret
              || List.exists (fun t -> SS.mem t !returns) tails
            then begin
              returns := SS.add f.name !returns;
              changed := true
            end
          end)
        funcs
    done;
    !returns

  let infer funcs =
    let rec fix nr =
      let rets = returns_set nr funcs in
      let nr' =
        List.fold_left
          (fun acc f ->
            if f.noreturn || not (SS.mem f.name rets) then SS.add f.name acc
            else acc)
          SS.empty funcs
      in
      if SS.equal nr nr' then nr else fix nr'
    in
    fix
      (SS.of_list
         (List.filter_map (fun f -> if f.noreturn then Some f.name else None) funcs))

  (* Drop unreachable statements after calls that cannot return. *)
  let rec truncate nr stmts =
    let rec go acc = function
      | [] -> List.rev acc
      | Call c :: _ when SS.mem c nr -> List.rev (Call_noreturn c :: acc)
      | (Call_noreturn _ as s) :: _ -> List.rev (s :: acc)
      | Call_error false :: _ -> List.rev (Call_error false :: acc)
      | (Return as s) :: _ | (Tail_call _ as s) :: _ -> List.rev (s :: acc)
      | If (a, b) :: rest ->
          go (If (truncate nr a, truncate nr b) :: acc) rest
      | Loop (k, body) :: rest -> go (Loop (k, truncate nr body) :: acc) rest
      | Switch (k, cases) :: rest ->
          go (Switch (k, Array.map (truncate nr) cases) :: acc) rest
      | Try (body, lp) :: rest ->
          go (Try (truncate nr body, truncate nr lp) :: acc) rest
      | Cold_jump cold :: rest -> go (Cold_jump (truncate nr cold) :: acc) rest
      | s :: rest -> go (s :: acc) rest
    in
    go [] stmts

  let apply funcs =
    let nr = infer funcs in
    List.map
      (fun f ->
        if f.conditional_noreturn || f.entry_jump then f
        else { f with body = truncate nr f.body })
      funcs
end

(** Generate a program.  [rng] drives all choices; the same seed yields the
    same program byte-for-byte. *)
let program rng (p : Profile.t) (spec : spec) =
  let n = max 4 spec.n_funcs in
  let fname i = Printf.sprintf "f%03d" i in
  (* Candidate callee sets: function i may call any later function, which
     keeps the direct call graph acyclic and every function reachable from
     main once main calls the early ones. *)
  let names = Array.init n fname in
  let n_slots = if n >= 10 then 4 + Prng.int rng 5 else 2 in
  (* Orphans: exported-API style functions nothing in this binary calls.
     The first 8 stay reachable (main's roots). *)
  let orphan = Array.init n (fun i -> i >= 8 && Prng.chance rng p.p_orphan) in
  let non_orphan_names =
    Array.of_list
      (List.filteri (fun i _ -> not orphan.(i)) (Array.to_list names))
  in
  (* Assembly functions without FDE, by reachability class. *)
  let asm_called =
    List.init spec.n_asm_called (fun i ->
        gen_asm rng ~name:(Printf.sprintf "asm_called%d" i) ~emit_fde:false ())
  in
  let asm_tailonly =
    List.init spec.n_asm_tailonly (fun i ->
        gen_asm rng ~name:(Printf.sprintf "asm_tail%d" i) ~emit_fde:false ())
  in
  let asm_pointer =
    List.init spec.n_asm_pointer (fun i ->
        gen_asm rng ~name:(Printf.sprintf "asm_ptr%d" i) ~emit_fde:false ())
  in
  let asm_code_ptr =
    List.init spec.n_asm_code_ptr (fun i ->
        gen_asm rng ~name:(Printf.sprintf "asm_cptr%d" i) ~emit_fde:false ())
  in
  let asm_unreachable =
    List.concat
      (List.init spec.n_asm_unreachable (fun i ->
           let succ_name = Printf.sprintf "asm_dead_succ%d" i in
           [
             gen_asm rng
               ~name:(Printf.sprintf "asm_dead%d" i)
               ~emit_fde:false ~callee:(Some succ_name) ();
             gen_asm rng ~name:succ_name ~emit_fde:false ();
           ]))
  in
  let broken =
    List.init spec.n_broken_fde (fun i ->
        gen_asm rng ~name:(Printf.sprintf "asm_broken%d" i) ~emit_fde:true
          ~broken_fde:true ())
  in
  (* Thunks: real single-jump forwarders (with FDE, like PLT-adjacent
     compiler thunks). *)
  let n_thunks = if n >= 20 then 1 + Prng.int rng 2 else 0 in
  let thunks =
    List.init n_thunks (fun i ->
        let target = names.(Prng.int rng n) in
        make_func
          ~name:(Printf.sprintf "thunk%d" i)
          ~params:1 ~frame:Frameless ~align:16
          [ Tail_call target ])
  in
  (* Which regular functions end in a tail call, and to whom. *)
  let asm_tail_names = List.map (fun f -> f.name) asm_tailonly in
  let tail_assignments = Hashtbl.create 8 in
  List.iteri
    (fun i t ->
      (* Each tail-only asm function is the target of exactly one tail
         call; spreading by index keeps the callers distinct. *)
      Hashtbl.replace tail_assignments (i mod n) t)
    asm_tail_names;
  let regulars =
    List.init n (fun i ->
        let callees_pool =
          (* later regular non-orphan functions + runtime + called-asm *)
          List.filteri (fun j _ -> j > i && not orphan.(j)) (Array.to_list names)
          @ List.map (fun f -> f.name) asm_called
        in
        (* chain edge: guarantee the next non-orphan function at least one
           direct caller, as real call graphs do for nearly every helper *)
        let chain =
          let rec next j =
            if j >= n then []
            else if orphan.(j) then next (j + 1)
            else [ names.(j) ]
          in
          next (i + 1)
        in
        let callees =
          List.filteri (fun _ _ -> Prng.chance rng 0.5) callees_pool
          |> fun l ->
          if List.length l > 6 then List.filteri (fun k _ -> k < 6) l else l
        in
        let tail_target =
          match Hashtbl.find_opt tail_assignments i with
          | Some t -> Some t
          | None ->
              if Prng.chance rng p.p_tail_call && Array.length non_orphan_names > 0
              then begin
                (* real tail-call targets are usually shared helpers with
                   other callers; aim mostly at main's roots so only a
                   small minority is single-referenced.  Never self. *)
                let t =
                  if Prng.chance rng 0.85 then names.(Prng.int rng (min 8 n))
                  else Prng.choice rng non_orphan_names
                in
                if t = names.(i) then None else Some t
              end
              else None
        in
        gen_regular rng p ~name:names.(i) ~callees ~must_call:chain
          ~cxx:spec.cxx ~tail_target ~n_slots ())
  in
  (* Sprinkle reg-pointer (code-constant) calls at a few sites, targeting
     the asm_code_ptr functions so xref detection has work to do. *)
  let cptr_leftover = ref (List.map (fun f -> f.name) asm_code_ptr) in
  let regulars =
    List.map
      (fun f ->
        (* entry-jump functions have fixed bodies; skip them *)
        match !cptr_leftover with
        | target :: rest when Prng.chance rng 0.5 && not f.entry_jump ->
            cptr_leftover := rest;
            { f with body = Call_reg_pointer target :: f.body }
        | _ ->
            if Prng.chance rng p.p_reg_pointer_call && not f.entry_jump then
              let t = names.(Prng.int rng n) in
              { f with body = Call_reg_pointer t :: f.body }
            else f)
      regulars
  in
  let main =
    let roots = Array.to_list (Array.sub names 0 (min 8 n)) in
    make_func ~name:"main" ~params:2 ~frame:(Rsp_frame 24) ~saves:[ Rbx ]
      ~align:16 ~endbr:p.endbr
      (* guaranteed references come first, before any call that noreturn
         inference might truncate after: leftover code-pointer targets,
         the assembly functions reachable only by direct call, and one
         indirect call through the pointer table *)
      (List.map (fun t -> Call_reg_pointer t) !cptr_leftover
      @ List.map (fun (f : Ir.func) -> Call f.name) asm_called
      @ (if n_slots > 0 then [ Call_pointer 0 ] else [])
      @ List.map (fun c -> Call c) roots
      @ [ Return ])
  in
  let start =
    make_func ~name:"_start" ~params:0 ~frame:Frameless ~align:16 ~endbr:p.endbr
      [ Call "main"; Call_noreturn "fatal_exit" ]
  in
  let clang_caller =
    (* only some C++ objects pull in the statically-linked handler; its
       caller is the first regular lowered from its body (entry-jump and
       conditionally-noreturn functions have fixed bodies, which would
       drop the call and leave the handler unreferenced) *)
    if spec.cxx && p.compiler = Profile.Synthllvm && Prng.chance rng 0.3 then
      List.find_opt
        (fun (f : Ir.func) -> not (f.entry_jump || f.conditional_noreturn))
        regulars
    else None
  in
  let clang_terminate =
    match clang_caller with
    | Some _ ->
        [
          (* statically linked by clang without an FDE; called directly *)
          make_func ~name:"__clang_call_terminate" ~params:1 ~emit_fde:false
            ~noreturn:true [ Compute 1; Call_noreturn "abort_like" ];
        ]
    | None -> []
  in
  let regulars =
    List.map
      (fun (f : Ir.func) ->
        match clang_caller with
        | Some g when g.name = f.name ->
            { f with body = If ([ Call_noreturn "__clang_call_terminate" ], []) :: f.body }
        | _ -> f)
      regulars
  in
  (* Pointer slot initialization: regular functions + pointer-referenced
     asm functions. *)
  let pointer_inits, n_slots =
    let must =
      (* pointer-reachable asm functions, and the real entries hidden
         behind hand-broken FDEs (how glibc's __restore_rt is reached) *)
      List.map (fun f -> f.name) asm_pointer @ List.map (fun f -> f.name) broken
    in
    (* every must-reference target keeps its slot even when the drawn
       slot count is smaller (adversarial corpora with many broken FDEs:
       each hidden entry stays reachable through data, as in glibc) *)
    let n_slots = max n_slots (List.length must) in
    let targets =
      must
      @ List.init (max 0 (n_slots - List.length must)) (fun _ ->
            names.(Prng.int rng n))
    in
    ( List.filteri (fun i _ -> i < n_slots) targets
      |> List.mapi (fun i t -> (i, t)),
      n_slots )
  in
  let funcs =
    [ start; main ] @ regulars @ thunks @ runtime_funcs ~cxx:spec.cxx
    @ clang_terminate @ asm_called @ asm_tailonly @ asm_pointer @ asm_code_ptr
    @ asm_unreachable @ broken
  in
  let funcs = Noreturn_infer.apply funcs in
  {
    funcs;
    n_pointer_slots = n_slots;
    pointer_inits;
    strip_symbols = spec.strip;
    object_size = 8 + Prng.int rng 12;
  }
