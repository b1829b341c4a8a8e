(** The answer record of a finished pipeline run, shared by
    {!Batch} and the serve daemon.

    A {!t} is the part of {!Pipeline.result} a client gets back: the
    detected starts, the seed census, [.eh_frame] parse health, rendered
    diagnostics and (optionally) the cross-layer lint findings.
    {!to_json} is deterministic — same run, same bytes — which is what
    lets the serve daemon cache the serialized form and hand back
    byte-identical responses on cache hits. *)

type t = {
  starts : int list;  (** final detected function starts, ascending *)
  n_seeds : int;  (** size of the final seed set *)
  records_ok : int;
  records_skipped : int;
  indirect_derefs : int;
  diags : string list;  (** rendered [.eh_frame] diagnostics *)
  findings : Fetch_check.Finding.t list;  (** sorted (when lint ran) *)
}

(** Summarize a run; [lint] (default true) also runs {!Lint.run}. *)
val of_result : ?lint:bool -> Pipeline.result -> t

(** One compact JSON object with fixed field order:
    [{"starts":[…],"n_seeds":N,"eh_frame":{"records_ok":N,
    "records_skipped":N,"indirect_derefs":N},"diags":[…],
    "findings":[…]}].  A deterministic function of [t]. *)
val to_json : t -> string
