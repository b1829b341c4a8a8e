(** Named adversarial scenarios over the synthetic corpus.

    Each scenario stresses one mechanism of function detection — padding
    pools with forged prologues, hand-written-CFI FDEs at scale (Fig. 6b),
    CET endbr64 decoys, 64-bit DWARF [.eh_frame], a stripped
    [.eh_frame_hdr], overlapping/misordered FDEs — while keeping the
    {!Truth.t} manifest exact: profile/spec knobs shape [.text] before
    truth is recorded, and post-link transforms only rewrite unwind
    sections the truth does not describe. *)

type t = {
  id : string;
  summary : string;  (** one line: what the corpus looks like *)
  stresses : string;  (** which paper mechanism/claim the scenario probes *)
  profile : Profile.t;
  spec : Gen.spec;
  transform : Link.built -> Link.built;  (** deterministic post-link rewrite *)
  fetch_floor : float;
      (** CI regression floor: minimum FETCH F1 (in [0,1]) on this
          scenario, with a safety margin below observed values *)
}

(** All scenarios; first is the ["clean"] control. *)
val all : t list

val ids : unit -> string list
val find : string -> t option

(** Generate + link + transform one binary of the scenario's corpus;
    deterministic in [seed]. *)
val build : t -> seed:int -> Link.built
