(** Decision ledger (see mli for the schema and recording contract). *)

type value = I of int | S of string

(* declared before [event], so an unannotated [e.ev] is an event's *)
type decision = {
  counter : string;
  ev : string;
  fixed : (string * value) list;
  handle : Trace.counter;
}

type event = {
  ev : string;
  addr : int;
  fields : (string * value) list;
}

(* Per-domain recording context, mirroring Trace: only the owning
   domain touches its context, so no synchronisation is needed. *)
type ctx = {
  mutable live : bool;
  mutable rev_events : event list;
  mutable scopes : (string * value) list list;  (** innermost first *)
}

let ctx_key =
  Domain.DLS.new_key (fun () -> { live = false; rev_events = []; scopes = [] })

let ctx () = Domain.DLS.get ctx_key
let enabled () = (ctx ()).live

let emit ~ev ~addr fields =
  let t = ctx () in
  if t.live then begin
    let scope_fields = List.concat (List.rev t.scopes) in
    t.rev_events <- { ev; addr; fields = fields @ scope_fields } :: t.rev_events
  end

(* every declared decision, newest first (declared at module init) *)
let rev_decisions = ref []

let decision counter ~ev fixed =
  let d = { counter; ev; fixed; handle = Trace.counter counter } in
  rev_decisions := d :: !rev_decisions;
  d

let decisions () = List.rev !rev_decisions

let decide d ~addr fields =
  Trace.incr d.handle;
  if enabled () then emit ~ev:d.ev ~addr (d.fixed @ fields)

let with_scope fields f =
  let t = ctx () in
  if not t.live then f ()
  else begin
    t.scopes <- fields :: t.scopes;
    Fun.protect
      ~finally:(fun () ->
        match t.scopes with
        | s :: rest when s == fields -> t.scopes <- rest
        | _ -> (* [stop] ran inside [f] and cleared the stack *) ())
      f
  end

let start () =
  let t = ctx () in
  t.rev_events <- [];
  t.scopes <- [];
  t.live <- true

let stop () =
  let t = ctx () in
  t.live <- false;
  t.scopes <- [];
  let events = List.rev t.rev_events in
  t.rev_events <- [];
  events

let with_run f =
  start ();
  match f () with
  | v -> (v, stop ())
  | exception e ->
      ignore (stop ());
      raise e

(* ---- queries ---- *)

let about addr events = List.filter (fun e -> e.addr = addr) events

let mentions addr (e : event) =
  e.addr <> addr
  && List.exists (function _, I v -> v = addr | _, S _ -> false) e.fields

let mentioning addr events = List.filter (mentions addr) events

(* ---- rendering ---- *)

module Json = Fetch_util.Json

let to_json (e : event) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"v\":1,\"ev\":%s,\"addr\":%d" (Json.escape e.ev) e.addr);
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (match v with
        | I i -> Printf.sprintf ",%s:%d" (Json.escape k) i
        | S s -> Printf.sprintf ",%s:%s" (Json.escape k) (Json.escape s)))
    e.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let of_json j =
  match (Json.member "ev" j, Json.member "addr" j) with
  | Some ev, Some addr -> (
      match (Json.to_str ev, Json.to_int addr) with
      | Some ev, Some addr -> (
          match j with
          | Json.Obj members ->
              let fields =
                List.filter_map
                  (fun (k, v) ->
                    if k = "v" || k = "ev" || k = "addr" then None
                    else
                      match v with
                      | Json.Num _ -> (
                          match Json.to_int v with
                          | Some i -> Some (k, I i)
                          | None -> Some (k, S (Json.to_string v)))
                      | Json.Str s -> Some (k, S s)
                      | other -> Some (k, S (Json.to_string other)))
                  members
              in
              Ok { ev; addr; fields }
          | _ -> Error "provenance event is not an object")
      | _ -> Error "provenance event: ev must be a string, addr an integer")
  | _ -> Error "provenance event: missing ev or addr"

let to_json_lines events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (to_json e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* Addresses print in hex (the operand names that carry addresses are
   fixed and known); plain quantities print in decimal. *)
let addr_field = function
  | "site" | "target" | "parent" | "part" | "entry" | "viol_at" | "into" -> true
  | _ -> false

let render (e : event) =
  let buf = Buffer.create 80 in
  Buffer.add_string buf (Printf.sprintf "%-18s %#x" e.ev e.addr);
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (match v with
        | I i when addr_field k -> Printf.sprintf " %s=%#x" k i
        | I i -> Printf.sprintf " %s=%d" k i
        | S s -> Printf.sprintf " %s=%s" k s))
    e.fields;
  Buffer.contents buf

let explain ~addr events =
  let subject = about addr events in
  let related = mentioning addr events in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "decision chain for %#x:\n" addr);
  if subject = [] then
    Buffer.add_string buf
      "  (no events: the address was never a candidate function start)\n"
  else
    List.iter
      (fun e -> Buffer.add_string buf (Printf.sprintf "  %s\n" (render e)))
      subject;
  if related <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "events mentioning %#x (as operand):\n" addr);
    List.iter
      (fun e -> Buffer.add_string buf (Printf.sprintf "  %s\n" (render e)))
      related
  end;
  let verdict =
    let rec last acc = function [] -> acc | e :: rest -> last (Some e) rest in
    match last None (List.filter (fun e -> e.ev = "verdict.start") subject) with
    | Some _ -> "detected function start"
    | None ->
        if List.exists (fun e -> e.ev = "alg1.merge") subject then
          "merged into another function (non-contiguous part)"
        else if subject = [] then "not a candidate"
        else "candidate, not kept as a function start"
  in
  Buffer.add_string buf (Printf.sprintf "verdict: %s\n" verdict);
  Buffer.contents buf
