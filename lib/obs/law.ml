(** Counter conservation laws (see mli). *)

type t = { total : string; parts : string list }

(* every declared law, newest first (declared at module init) *)
let rev_laws = ref []
let declare ~total parts = rev_laws := { total; parts } :: !rev_laws
let all () = List.rev !rev_laws

(* ["xref.reject.*"] -> [Some "xref.reject."] *)
let prefix_of part =
  if String.ends_with ~suffix:".*" part then
    Some (String.sub part 0 (String.length part - 1))
  else None

let to_string law =
  let part p = if prefix_of p = None then p else "Σ " ^ p in
  law.total ^ " = " ^ String.concat " + " (List.map part law.parts)

(* a part's value; [None] when a named part is missing *)
let value counters part =
  match prefix_of part with
  | None -> List.assoc_opt part counters
  | Some prefix ->
      Some
        (List.fold_left
           (fun acc (name, v) ->
             if String.starts_with ~prefix name then acc + v else acc)
           0 counters)

let broken counters =
  List.filter_map
    (fun law ->
      let parts = List.map (value counters) law.parts in
      match List.assoc_opt law.total counters with
      | Some total when List.for_all Option.is_some parts ->
          let sum = List.fold_left (fun acc v -> acc + Option.get v) 0 parts in
          if sum <> total then Some (law, total, sum) else None
      | Some _ | None -> None)
    (all ())
