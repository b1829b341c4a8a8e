(* The three pointer-heavy synth draws the ledger goldens pin, [gcc],
   [llvm] and [shared].  They use the fetchbench pointer-heavy spec at
   its lower bounds (20 data-pointer and 14 code-pointer asm functions,
   2 broken FDEs), so most starts come from §IV-E rounds and every draw
   takes the Fig. 6b reseed path.  In the [shared] draw, a function that
   jumps back into another one's body shares its bytes, and seven §IV-E
   rejections per pass land there: their [into] pins that shared code
   goes to the highest owning entry. *)

open Fetch_synth

let spec =
  {
    Gen.default_spec with
    n_funcs = 40;
    n_asm_called = 4;
    n_asm_tailonly = 3;
    n_asm_pointer = 20;
    n_asm_code_ptr = 14;
    n_asm_unreachable = 2;
    n_broken_fde = 2;
    strip = true;
  }

let names = [ "gcc"; "llvm"; "shared" ]

let build name =
  let compiler, seed =
    match name with
    | "gcc" -> (Profile.Synthgcc, 2)
    | "llvm" -> (Profile.Synthllvm, 3)
    | "shared" -> (Profile.Synthgcc, 17)
    | _ -> invalid_arg ("Ledger_draws.build: " ^ name)
  in
  Link.build_random ~profile:(Profile.make compiler Profile.O2) ~seed spec
