(** Models of the six non-FDE tools in Table III.  On stripped binaries
    these seed from the program entry point (plus surviving symbols) and
    grow coverage with pattern matching — the fundamental limitation
    §II-B describes.  Each model is a named composition of a safe (or,
    for BAP, weak) engine run + heuristic passes; see the module comments
    in the implementation for the per-tool stack. *)

(** Capable recursion + iterated strict prologue matching. *)
module Dyninst : sig
  val detect : Fetch_analysis.Loaded.t -> int list
end

(** Weak recursion + BYTEWEIGHT-style loose matching everywhere: the
    false-positive champion. *)
module Bap : sig
  val detect : Fetch_analysis.Loaded.t -> int list
end

(** Conservative single-pass strict matching: lowest FP, highest FN. *)
module Radare2 : sig
  val detect : Fetch_analysis.Loaded.t -> int list
end

(** Iterated anchored matching + thunk splitting. *)
module Ida : sig
  val detect : Fetch_analysis.Loaded.t -> int list
end

(** Aggressive: loose matching + alignment + tail-call splitting. *)
module Binja : sig
  val detect : Fetch_analysis.Loaded.t -> int list
end

(** Compiler-agnostic linear sweep + control-flow grouping (§II-B): starts
    are call targets plus each connected group's lowest address. *)
module Nucleus : sig
  val detect : Fetch_analysis.Loaded.t -> int list
end
