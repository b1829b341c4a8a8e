(** Plain-text table rendering for the experiment drivers.

    Renders the paper's tables (I–V) and Figure 5 as aligned monospace
    rows so bench output can be diffed against EXPERIMENTS.md. *)

(** [render ~header rows] lays out all rows under [header] with column
    widths fitted to the longest cell.  Numeric-looking cells are
    right-aligned. *)
val render : header:string list -> string list list -> string

(** [pct num den] is ["-"] when [den = 0], else [100 * num / den] with two
    decimals. *)
val pct : int -> int -> string

(** [thousands n] is [n / 1000] with two decimals, as Table III prints. *)
val thousands : int -> string
