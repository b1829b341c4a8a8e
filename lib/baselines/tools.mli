(** Registry of all function-start detectors compared in Table III / V. *)

type t = {
  name : string;
  detect : Fetch_analysis.Loaded.t -> int list;
  loads : Fetch_analysis.Loaded.t -> bool;
      (** can the tool open this binary at all?  The paper reports ANGR
          failing to load 9 of the 1,352 self-built binaries (§IV-C); a
          tool that cannot load a binary detects nothing in it. *)
}

val fetch : t
val ghidra : t
val angr : t
val nucleus : t

(** All nine, in Table III column order. *)
val all : t list
