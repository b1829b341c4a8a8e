(** Address ranges as one offset space — see the interface. *)

(* per range, three ints: [lo], [hi] and the offset of [lo] *)
type t = int array

let create ranges =
  let merged =
    List.filter (fun (lo, hi) -> hi > lo) ranges
    |> List.sort compare
    |> List.fold_left
         (fun acc (lo, hi) ->
           match acc with
           | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
           | _ -> (lo, hi) :: acc)
         []
    |> List.rev
  in
  let b = Array.make (3 * List.length merged) 0 in
  ignore
    (List.fold_left
       (fun (i, base) (lo, hi) ->
         b.(i) <- lo;
         b.(i + 1) <- hi;
         b.(i + 2) <- base;
         (i + 3, base + hi - lo))
       (0, 0) merged);
  b

let size b =
  let n = Array.length b in
  if n = 0 then 0 else b.(n - 1) + b.(n - 2) - b.(n - 3)

(* The offset of [addr], looked up from the [i]th range on, or -1.
   Top-level, so that a lookup allocates no closure.  It is the hottest
   lookup of every walk: returning a range index instead and reading
   the range again cost fetchbench pointer-heavy about 15% of its
   throughput on a 2-core x86-64 host. *)
let rec offset_from b addr i =
  if i >= Array.length b then -1
  else if addr >= b.(i) && addr < b.(i + 1) then addr - b.(i) + b.(i + 2)
  else offset_from b addr (i + 3)

let offset b addr = offset_from b addr 0

(* Merged ranges lie at least a byte apart, so two addresses in
   different ranges are further apart than their offsets. *)
let span b ~lo ~hi =
  let o = offset b lo in
  if o < 0 || hi <= lo || offset b (hi - 1) <> o + (hi - 1 - lo) then -1 else o

let iter b f =
  let rec go i =
    if i < Array.length b then begin
      f ~lo:b.(i) ~hi:b.(i + 1) ~base:b.(i + 2);
      go (i + 3)
    end
  in
  go 0
