(** Corpus specifications mirroring the paper's two datasets.

    Dataset 2 (Table II): 179 "programs" across 22 projects, each compiled
    with both synthetic compilers at O2/O3/Os/Ofast (1,432 binaries at
    full scale).  Dataset 1 (Table I): 43 "wild" binaries, 11 of which
    carry symbols.  Everything derives deterministically from a master
    seed. *)

type lang = C | Cxx | Mixed

type project = {
  pname : string;
  ptype : string;
  n_programs : int;
  lang : lang;
  funcs : int * int;  (** per-binary function count range *)
  asm : Fetch_synth.Gen.spec -> Fetch_synth.Gen.spec;
      (** per-project assembly-function mix *)
}

(** The 22 Table II rows. *)
val projects : project list

type binary = {
  id : string;
  project : project;
  profile : Fetch_synth.Profile.t;
  built : Fetch_synth.Link.built;
}

(** One deterministic build job: [build] derives the binary from the
    job's own sub-seed, so jobs run in any order — or on any domain —
    and produce identical binaries. *)
type job = { job_id : string; build : unit -> binary }

(** Enumerate the self-built corpus as build jobs without building
    anything, in {!fold_selfbuilt} traversal order. *)
val jobs_selfbuilt : ?scale:float -> ?only:string list -> unit -> job list

(** Fold over the self-built corpus.  [scale] in (0, 1] shrinks each
    project's program count (at least one program each); [only] restricts
    to the named projects.  Binaries are generated on the fly and never
    retained. *)
val fold_selfbuilt :
  ?scale:float ->
  ?only:string list ->
  init:'a ->
  ('a -> binary -> 'a) ->
  'a

(** Map over the self-built corpus on a domain pool: each job
    (generation + the callback) is one isolated task.  Results are in
    {!fold_selfbuilt} traversal order; a raising task yields an [Error]
    labelled with the binary id instead of aborting the batch. *)
val map_selfbuilt_par :
  Fetch_par.Pool.t ->
  ?scale:float ->
  ?only:string list ->
  (binary -> 'b) ->
  ('b, Fetch_par.Pool.failure) result list

(** Number of binaries a [fold_selfbuilt] at this scale visits. *)
val count_selfbuilt : ?scale:float -> unit -> int

(** {1 Dataset 1} *)

type wild_meta = {
  wname : string;
  open_source : bool;
  has_symbols : bool;
  wlang : lang;
}

(** The 43 Table I rows (name, open-source, symbols, language). *)
val wild_rows : (string * bool * bool * lang) list

(** Generate the wild corpus; symbols kept on the 11 flagged rows. *)
val wild : unit -> (wild_meta * Fetch_synth.Link.built) list
