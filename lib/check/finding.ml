(** Structured lint findings — see the interface for the severity
    contract. *)

type severity = Info | Warning | Error

type t = {
  rule : string;
  severity : severity;
  addr : int;
  related : int option;
  message : string;
}

let severity_label = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* Total order: severity, then address, then rule, with [related] and
   [message] as final tiebreakers so reports are byte-stable however the
   findings were produced. *)
let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
      match Stdlib.compare a.addr b.addr with
      | 0 -> (
          match Stdlib.compare a.rule b.rule with
          | 0 -> (
              match Stdlib.compare a.related b.related with
              | 0 -> Stdlib.compare a.message b.message
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let to_string f =
  Printf.sprintf "%-7s %-16s %#x: %s%s" (severity_label f.severity) f.rule
    f.addr f.message
    (match f.related with
    | Some r -> Printf.sprintf " (see %#x)" r
    | None -> "")

let to_json f =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf {|{"rule":%s,"severity":"%s","addr":%d|}
       (Fetch_util.Json.escape f.rule)
       (severity_label f.severity) f.addr);
  (match f.related with
  | Some r -> Buffer.add_string b (Printf.sprintf {|,"related":%d|} r)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf {|,"message":%s}|}
       (Fetch_util.Json.escape f.message));
  Buffer.contents b

let count sev = List.fold_left (fun n f -> if f.severity = sev then n + 1 else n) 0
