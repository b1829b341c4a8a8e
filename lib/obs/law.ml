(** Counter conservation laws (see mli). *)

type relation = Equal | At_most
type t = { total : string; rel : relation; parts : string list }

(* every declared law, newest first (declared at module init) *)
let rev_laws = ref []
let declare ?(rel = Equal) ~total parts = rev_laws := { total; rel; parts } :: !rev_laws
let all () = List.rev !rev_laws

(* ["xref.reject.*"] -> [Some "xref.reject."] *)
let prefix_of part =
  if String.ends_with ~suffix:".*" part then
    Some (String.sub part 0 (String.length part - 1))
  else None

let to_string law =
  let part p = if prefix_of p = None then p else "Σ " ^ p in
  let op = match law.rel with Equal -> " = " | At_most -> " ≤ " in
  law.total ^ op ^ String.concat " + " (List.map part law.parts)

(* a part's value; [None] when a named part, or every counter of a
   prefix, is missing *)
let value counters part =
  match prefix_of part with
  | None -> List.assoc_opt part counters
  | Some prefix ->
      List.fold_left
        (fun acc (name, v) ->
          if String.starts_with ~prefix name then
            Some (v + Option.value acc ~default:0)
          else acc)
        None counters

let broken counters =
  List.filter_map
    (fun law ->
      let parts = List.map (value counters) law.parts in
      match List.assoc_opt law.total counters with
      | Some total when List.for_all Option.is_some parts ->
          let sum = List.fold_left (fun acc v -> acc + Option.get v) 0 parts in
          let holds = match law.rel with Equal -> total = sum | At_most -> total <= sum in
          if holds then None else Some (law, total, sum)
      | Some _ | None -> None)
    (all ())
