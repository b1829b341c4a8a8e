(* The §III walkthrough: what .eh_frame is *for*.  We simulate a deep call
   chain at the moment a `throw` happens and drive the reference unwinder
   through tasks T1 (find the function), T2 (find CFA and return address)
   and T3 (restore callee-saved registers), frame by frame, exactly as
   libgcc's _Unwind_RaiseException would.

     dune exec examples/unwind_walk.exe *)

open Fetch_synth.Ir

(* main -> middle -> thrower; each with a frame, like Figure 1's div/main. *)
let program =
  {
    funcs =
      [
        make_func ~name:"_start" [ Call "main"; Return ];
        make_func ~name:"main" ~frame:(Rsp_frame 40) ~saves:[ Fetch_x86.Reg.Rbx ]
          [ Compute 2; Call "middle"; Return ];
        make_func ~name:"middle" ~frame:(Rsp_frame 24)
          ~saves:[ Fetch_x86.Reg.R12 ]
          [ Compute 2; Call "thrower"; Return ];
        make_func ~name:"thrower" ~frame:(Rsp_frame 16) [ Compute 3; Return ];
      ];
    n_pointer_slots = 0;
    pointer_inits = [];
    strip_symbols = false;
    object_size = 8;
  }

let () =
  let profile = Fetch_synth.Profile.make Fetch_synth.Profile.Synthgcc Fetch_synth.Profile.O2 in
  let rng = Fetch_util.Prng.create 11 in
  let built = Fetch_synth.Link.build ~profile ~rng program in
  let loaded = Fetch_analysis.Loaded.load built.image in
  let oracle = loaded.oracle in
  let fn name =
    List.find (fun (f : Fetch_synth.Truth.fn_truth) -> f.name = name)
      built.truth.fns
  in
  let name_of a =
    match
      List.find_opt
        (fun (f : Fetch_synth.Truth.fn_truth) ->
          a >= f.start && a < f.start + f.size)
        built.truth.fns
    with
    | Some f -> f.name
    | None -> "?"
  in

  (* Build the simulated stack, outermost frame first.  Each call pushes a
     return address; each prologue pushes saves and subtracts rsp.  We
     place the "throw" in the middle of thrower's body. *)
  let mem : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let sp = ref 0x7ffff000 in
  let push v =
    sp := !sp - 8;
    Hashtbl.replace mem !sp v
  in
  let simulate_call ~ret_addr = push ret_addr in
  let simulate_prologue (f : Fetch_synth.Truth.fn_truth) saved =
    (* replay the frame growth the CFI records for this function *)
    let h = ref 0 in
    List.iter
      (fun v ->
        push v;
        h := !h + 8)
      saved;
    (* remaining frame: find the function's max height from the oracle *)
    let rec probe addr best =
      if addr >= f.start + f.size then best
      else
        match Fetch_dwarf.Height_oracle.height_at oracle addr with
        | Some hh -> probe (addr + 1) (max best hh)
        | None -> probe (addr + 1) best
    in
    let target = probe f.start 0 in
    sp := !sp - (target - !h)
  in

  let main_f = fn "main" and middle_f = fn "middle" and thrower_f = fn "thrower" in
  (* _start calls main *)
  simulate_call ~ret_addr:0x401005;
  simulate_prologue main_f [ 0xbb ];
  (* main saved rbx=0xbb *)
  let ret_into_main = main_f.start + 20 in
  simulate_call ~ret_addr:ret_into_main;
  simulate_prologue middle_f [ 0xcc ];
  (* middle saved r12=0xcc *)
  let ret_into_middle = middle_f.start + 20 in
  simulate_call ~ret_addr:ret_into_middle;
  simulate_prologue thrower_f [];
  let throw_pc = thrower_f.start + thrower_f.size - 4 in

  Printf.printf "simulated throw at %#x (inside %s), rsp=%#x\n" throw_pc
    (name_of throw_pc) !sp;

  let machine =
    {
      Fetch_dwarf.Unwind.pc = throw_pc;
      regs = [ (Fetch_dwarf.Cfa_table.dw_rsp, !sp) ];
      read_u64 = (fun a -> Hashtbl.find_opt mem a);
    }
  in
  match
    Fetch_dwarf.Unwind.walk oracle machine ~max_frames:8 ~stop:(fun f ->
        name_of f.return_address = "_start")
  with
  | Error (_, frames) ->
      Printf.eprintf "unwind stopped after %d frames\n" (List.length frames);
      exit 1
  | Ok frames ->
      List.iteri
        (fun i (f : Fetch_dwarf.Unwind.frame) ->
          Printf.printf
            "frame %d: CFA=%#x, return into %s at %#x, restored regs: %s\n" i
            f.cfa (name_of f.return_address) f.return_address
            (String.concat ", "
               (List.filter_map
                  (fun (r, v) ->
                    if r = 3 then Some (Printf.sprintf "rbx=%#x" v)
                    else if r = 12 then Some (Printf.sprintf "r12=%#x" v)
                    else None)
                  f.caller_regs)))
        frames;
      Printf.printf
        "the unwinder recovered every caller and every callee-saved register\n\
         from .eh_frame alone — the same data FETCH mines for function starts.\n"
