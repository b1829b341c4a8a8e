(** Flat instruction-boundary table — layout and fork semantics in the
    interface. *)

let page_bits = 8
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let max_len = 0x7f
let start_bit = 0x80

(* Every untouched page of every table is this one.  It is never written:
   a page is written in place only by the table whose generation stamps
   it, and no generation is 0. *)
let zero_page = Bytes.make page_size '\000'

type section = {
  lo : int;
  hi : int;
  pages : Bytes.t array;
  stamps : int array;  (** generation owning each page; 0 = nobody *)
}

type t = {
  secs : section array;  (** disjoint, ascending *)
  mutable gen : int;
  mutable count : int;
}

let next_gen = Atomic.make 1
let fresh_gen () = Atomic.fetch_and_add next_gen 1

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
  let n = (hi - lo + page_mask) lsr page_bits in
  { lo; hi; pages = Array.make n zero_page; stamps = Array.make n 0 }

let create ranges =
  let secs = Array.of_list (List.map (fun (lo, hi) -> section lo hi) (merge ranges)) in
  { secs; gen = fresh_gen (); count = 0 }

(* Both sides get a fresh generation, so neither owns a page any more and
   the first write to a shared page copies it. *)
let copy t =
  t.gen <- fresh_gen ();
  let fork s =
    { s with pages = Array.copy s.pages; stamps = Array.make (Array.length s.stamps) 0 }
  in
  { secs = Array.map fork t.secs; gen = fresh_gen (); count = t.count }

(* Index of the section containing [addr], or -1. *)
let sec_index t addr =
  let secs = t.secs in
  let rec go i =
    if i >= Array.length secs then -1
    else
      let s = Array.unsafe_get secs i in
      if addr < s.lo then -1 else if addr < s.hi then i else go (i + 1)
  in
  go 0

(* [addr] must lie in [s]: the page index is then below [Array.length
   s.pages] and the offset below [page_size]. *)
let get s addr =
  let off = addr - s.lo in
  Char.code
    (Bytes.unsafe_get (Array.unsafe_get s.pages (off lsr page_bits)) (off land page_mask))

let set t s addr v =
  let off = addr - s.lo in
  let i = off lsr page_bits in
  let page =
    if s.stamps.(i) = t.gen then s.pages.(i)
    else begin
      let p = Bytes.copy s.pages.(i) in
      s.pages.(i) <- p;
      s.stamps.(i) <- t.gen;
      p
    end
  in
  Bytes.unsafe_set page (off land page_mask) (Char.unsafe_chr v)

let add t ~lo ~hi =
  let len = hi - lo in
  if len < 1 || len > max_len then invalid_arg "Insn_index.add: bad length";
  let i = sec_index t lo in
  if i < 0 || hi > t.secs.(i).hi then invalid_arg "Insn_index.add: outside the table";
  let s = t.secs.(i) in
  let rec free a = a >= hi || (get s a = 0 && free (a + 1)) in
  if free lo then begin
    set t s lo (start_bit lor len);
    for k = 1 to len - 1 do
      set t s (lo + k) k
    done;
    t.count <- t.count + 1
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
