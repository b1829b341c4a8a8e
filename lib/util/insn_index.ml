(** The committed-code byte map — layout in the interface. *)

let start_bit = 0x80
let code_bit = 0x40
let max_len = 0x3f

type t = {
  map : Offset_map.t;
  bytes : Bytes.t;  (** one per offset of [map] *)
  mutable count : int;
}

let create ranges =
  let map = Offset_map.create ranges in
  { map; bytes = Bytes.make (Offset_map.size map) '\000'; count = 0 }

(* [o] must be an offset of the map *)
let get t o = Char.code (Bytes.unsafe_get t.bytes o)
let set t o v = Bytes.unsafe_set t.bytes o (Char.unsafe_chr v)

let add t ~lo ~hi =
  let len = hi - lo in
  if len < 1 || len > max_len then invalid_arg "Insn_index.add: bad length";
  let o = Offset_map.span t.map ~lo ~hi in
  if o < 0 then invalid_arg "Insn_index.add: outside the table";
  let free = ref true in
  for k = o to o + len - 1 do
    let v = get t k in
    if v land max_len <> 0 then free := false;
    set t k (v lor code_bit)
  done;
  !free
  && begin
       set t o (start_bit lor code_bit lor len);
       for k = 1 to len - 1 do
         set t (o + k) (code_bit lor k)
       done;
       t.count <- t.count + 1;
       true
     end

let find t addr =
  let o = Offset_map.offset t.map addr in
  if o < 0 then None
  else
    let v = get t o in
    let d = v land max_len in
    if d = 0 then None
    else if v land start_bit <> 0 then Some (addr, addr + d)
    else Some (addr - d, addr - d + (get t (o - d) land max_len))

let mem t addr =
  let o = Offset_map.offset t.map addr in
  o >= 0 && get t o land max_len <> 0

let in_code t addr =
  let o = Offset_map.offset t.map addr in
  o >= 0 && get t o land code_bit <> 0

(* The bytes of committed instructions in offsets [\[o, stop)], an
   instruction at a time: [d] is a start's length or a later byte's
   distance back to its start. *)
let rec covered_from t o stop n =
  if o >= stop then n
  else
    let v = get t o in
    let d = v land max_len in
    if d = 0 then covered_from t (o + 1) stop n
    else
      let e = if v land start_bit <> 0 then o + d else o - d + (get t (o - d) land max_len) in
      covered_from t e stop (n + min e stop - o)

let covered t ~lo ~hi =
  let o = Offset_map.span t.map ~lo ~hi in
  if o >= 0 then covered_from t o (o + hi - lo) 0
  else
    let n = ref 0 in
    Offset_map.iter t.map (fun ~lo:rlo ~hi:rhi ~base ->
        n := covered_from t (base + max lo rlo - rlo) (base + min hi rhi - rlo) !n);
    !n

let next_from t addr =
  let exception Found of int * int in
  try
    Offset_map.iter t.map (fun ~lo ~hi ~base ->
        for a = max addr lo to hi - 1 do
          let v = get t (base + a - lo) in
          if v land start_bit <> 0 then raise (Found (a, a + (v land max_len)))
        done);
    None
  with Found (lo, hi) -> Some (lo, hi)

let cardinal t = t.count

(* From one instruction's end the next byte is free or a start, so the
   walk steps each instruction once, not each of its bytes. *)
let iter t f =
  Offset_map.iter t.map (fun ~lo ~hi ~base ->
      let rec go a =
        if a < hi then
          let v = get t (base + a - lo) in
          if v land start_bit = 0 then go (a + 1)
          else
            let e = a + (v land max_len) in
            f ~lo:a ~hi:e;
            go e
      in
      go lo)

let to_list t =
  let acc = ref [] in
  iter t (fun ~lo ~hi -> acc := (lo, hi) :: !acc);
  List.rev !acc
