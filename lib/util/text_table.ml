(** Plain-text table rendering for the experiment drivers.

    Renders the paper's tables (I–V) and Figure 5 as aligned monospace rows
    so bench output can be diffed against EXPERIMENTS.md. *)

(** [render ~header rows] lays out all rows under [header] with column
    widths fitted to the longest cell.  Numeric-looking cells are
    right-aligned. *)
let render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let cell row i = match List.nth_opt row i with Some c -> c | None -> "" in
  let widths =
    Array.init ncols (fun i ->
        List.fold_left (fun acc r -> max acc (String.length (cell r i))) 0 all)
  in
  let numeric s =
    s <> ""
    && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '%' || c = ',') s
  in
  let buf = Buffer.create 256 in
  let emit_row row =
    List.iteri
      (fun i c ->
        let w = widths.(i) in
        let padded =
          if numeric c then Printf.sprintf "%*s" w c else Printf.sprintf "%-*s" w c
        in
        Buffer.add_string buf padded;
        if i < ncols - 1 then Buffer.add_string buf "  ")
      row;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  let rule = Array.fold_left (fun acc w -> acc + w) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make rule '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

(** Format helpers shared by experiment drivers. *)
let pct num den = if den = 0 then "-" else Printf.sprintf "%.2f" (100.0 *. float_of_int num /. float_of_int den)

let thousands n = Printf.sprintf "%.2f" (float_of_int n /. 1000.0)
