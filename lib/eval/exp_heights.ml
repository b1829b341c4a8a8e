(** Table IV: coverage and precision of the static stack-height analyses
    (ANGR- and DYNINST-style) against the CFI baseline, at all code
    locations ("Full") and at jump sites only ("Jump").

    Only functions whose CFI passes the §V-B completeness test enter the
    comparison, exactly as the paper does. *)

open Fetch_synth

type style_cells = {
  mutable full : Metrics.pre_rec;
  mutable jump : Metrics.pre_rec;
}

let new_cells () = { full = Metrics.empty_pre_rec; jump = Metrics.empty_pre_rec }

let is_jump_insn insn =
  match Fetch_x86.Semantics.flow insn with
  | Fetch_x86.Semantics.Jump _ | Fetch_x86.Semantics.Cond _ -> true
  | _ -> false

(* Expected heights at true instruction boundaries of one function, from
   the CFI oracle. *)
let expected_heights loaded (truth_fn : Truth.fn_truth) =
  let oracle = loaded.Fetch_analysis.Loaded.oracle in
  List.concat_map
    (fun (lo, size) ->
      let rec walk addr acc =
        if addr >= lo + size then List.rev acc
        else
          match Fetch_analysis.Loaded.insn_at loaded addr with
          | Some (insn, len) -> (
              match Fetch_dwarf.Height_oracle.height_at oracle addr with
              | Some h -> walk (addr + len) ((addr, h, is_jump_insn insn) :: acc)
              | None -> walk (addr + len) acc)
          | None -> List.rev acc
      in
      walk lo [])
    truth_fn.parts

let run ?(scale = 1.0) () =
  let table : (string * Profile.opt, style_cells) Hashtbl.t = Hashtbl.create 16 in
  let cells name opt =
    match Hashtbl.find_opt table (name, opt) with
    | Some c -> c
    | None ->
        let c = new_cells () in
        Hashtbl.replace table (name, opt) c;
        c
  in
  let styles =
    [
      ("ANGR", Fetch_analysis.Stack_height.Angr);
      ("DYNINST", Fetch_analysis.Stack_height.Dyninst);
    ]
  in
  Corpus.fold_selfbuilt ~scale ~init:() (fun () (bin : Corpus.binary) ->
      let stripped = Fetch_elf.Image.strip bin.built.image in
      let loaded = Fetch_analysis.Loaded.load stripped in
      List.iter
        (fun (f : Truth.fn_truth) ->
          if
            f.has_fde
            && Fetch_dwarf.Height_oracle.complete_at loaded.oracle f.start
          then begin
            let expected = expected_heights loaded f in
            if expected <> [] then
              List.iter
                (fun (sname, style) ->
                  let heights =
                    Fetch_analysis.Stack_height.analyze loaded ~style f.start
                  in
                  let c = cells sname bin.profile.opt in
                  let score jump_only =
                    List.fold_left
                      (fun acc (addr, h, is_jump) ->
                        if jump_only && not is_jump then acc
                        else
                          let reported, correct =
                            match heights addr with
                            | Some h' -> (1, if h' = h then 1 else 0)
                            | None -> (0, 0)
                          in
                          Metrics.add_pre_rec acc
                            { Metrics.reported; correct; expected = 1 })
                      Metrics.empty_pre_rec expected
                  in
                  c.full <- Metrics.add_pre_rec c.full (score false);
                  c.jump <- Metrics.add_pre_rec c.jump (score true))
                styles
          end)
        bin.built.truth.fns);
  table

let render table =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table IV: static stack-height analyses vs the CFI baseline (Pre / Rec %)\n";
  let header =
    [ "OPT"; "ANGR Full Pre"; "Rec"; "Jump Pre"; "Rec";
      "DYNINST Full Pre"; "Rec"; "Jump Pre"; "Rec" ]
  in
  let fmt v = Printf.sprintf "%.2f" v in
  let row opt =
    Profile.opt_name opt
    :: List.concat_map
         (fun name ->
           match Hashtbl.find_opt table (name, opt) with
           | Some c ->
               [
                 fmt (Metrics.precision c.full); fmt (Metrics.recall c.full);
                 fmt (Metrics.precision c.jump); fmt (Metrics.recall c.jump);
               ]
           | None -> [ "-"; "-"; "-"; "-" ])
         [ "ANGR"; "DYNINST" ]
  in
  Buffer.add_string buf
    (Fetch_util.Text_table.render ~header (List.map row Profile.all_opts));
  Buffer.add_string buf
    "(paper averages: ANGR Full 94.07/97.71, Jump 98.72/96.40;\n\
    \ DYNINST Full 94.81/98.27, Jump 98.67/99.35 — static analyses are\n\
    \ both incomplete and imprecise relative to CFI, and jump-site-only\n\
    \ precision is higher than full-location precision)\n";
  Buffer.contents buf
