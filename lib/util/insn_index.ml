(** Flat instruction-boundary table — layout in the interface. *)

let page_bits = 8
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let max_len = 0x7f
let start_bit = 0x80

(* Every untouched page of every table is this one.  It is never written:
   the first write to a page replaces it with a page of its own. *)
let zero_page = Bytes.make page_size '\000'

type section = { lo : int; hi : int; pages : Bytes.t array }

type t = {
  secs : section array;  (** disjoint, ascending *)
  mutable count : int;
}

let merge ranges =
  List.filter (fun (lo, hi) -> hi > lo) ranges
  |> List.sort compare
  |> List.fold_left
       (fun acc (lo, hi) ->
         match acc with
         | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
         | _ -> (lo, hi) :: acc)
       []
  |> List.rev

let section lo hi =
  { lo; hi; pages = Array.make ((hi - lo + page_mask) lsr page_bits) zero_page }

let create ranges =
  let secs = Array.of_list (List.map (fun (lo, hi) -> section lo hi) (merge ranges)) in
  { secs; count = 0 }

(* Index of the section of [secs] from the [i]th on containing [addr],
   or -1.  Top-level, so that a lookup allocates no closure. *)
let rec sec_from secs addr i =
  if i >= Array.length secs then -1
  else
    let s = Array.unsafe_get secs i in
    if addr < s.lo then -1 else if addr < s.hi then i else sec_from secs addr (i + 1)

let sec_index t addr = sec_from t.secs addr 0

(* [addr] must lie in [s]: the page index is then below [Array.length
   s.pages] and the offset below [page_size]. *)
let get s addr =
  let off = addr - s.lo in
  Char.code
    (Bytes.unsafe_get (Array.unsafe_get s.pages (off lsr page_bits)) (off land page_mask))

let set s addr v =
  let off = addr - s.lo in
  let i = off lsr page_bits in
  let page =
    if s.pages.(i) != zero_page then s.pages.(i)
    else begin
      let p = Bytes.make page_size '\000' in
      s.pages.(i) <- p;
      p
    end
  in
  Bytes.unsafe_set page (off land page_mask) (Char.unsafe_chr v)

(* No byte of [\[a, hi)] in [s] is taken yet. *)
let rec free s a hi = a >= hi || (get s a = 0 && free s (a + 1) hi)

let add t ~lo ~hi =
  let len = hi - lo in
  if len < 1 || len > max_len then invalid_arg "Insn_index.add: bad length";
  let i = sec_index t lo in
  if i < 0 || hi > t.secs.(i).hi then invalid_arg "Insn_index.add: outside the table";
  let s = t.secs.(i) in
  free s lo hi
  && begin
       set s lo (start_bit lor len);
       for k = 1 to len - 1 do
         set s (lo + k) k
       done;
       t.count <- t.count + 1;
       true
     end

(* [(lo, hi)] of the instruction starting at [lo] in [s]. *)
let span s lo = (lo, lo + (get s lo land max_len))

let find t addr =
  let i = sec_index t addr in
  if i < 0 then None
  else
    let s = t.secs.(i) in
    let b = get s addr in
    if b = 0 then None
    else Some (span s (if b land start_bit <> 0 then addr else addr - b))

let mem t addr =
  let i = sec_index t addr in
  i >= 0 && get t.secs.(i) addr <> 0

(* First instruction start in [\[from, s.hi)], or -1; shared zero pages
   are skipped whole. *)
let next_start s from =
  let rec go a =
    if a >= s.hi then -1
    else
      let off = a - s.lo in
      let page = Array.unsafe_get s.pages (off lsr page_bits) in
      if page == zero_page then go (s.lo + (off lor page_mask) + 1)
      else if Char.code (Bytes.unsafe_get page (off land page_mask)) land start_bit <> 0
      then a
      else go (a + 1)
  in
  go from

let next_from t addr =
  let rec go i =
    if i >= Array.length t.secs then None
    else
      let s = t.secs.(i) in
      let a = if s.hi <= addr then -1 else next_start s (max addr s.lo) in
      if a < 0 then go (i + 1) else Some (span s a)
  in
  go 0

let cardinal t = t.count

(* From one instruction's end the next byte is free or a start, so the
   walk touches each instruction once, not each of its bytes. *)
let iter t f =
  Array.iter
    (fun s ->
      let rec go from =
        let lo = next_start s from in
        if lo >= 0 then begin
          let hi = lo + (get s lo land max_len) in
          f ~lo ~hi;
          go hi
        end
      in
      go s.lo)
    t.secs

let to_list t =
  let acc = ref [] in
  iter t (fun ~lo ~hi -> acc := (lo, hi) :: !acc);
  List.rev !acc
