(** Growable little-endian byte buffer with random-access patching.

    Used by every encoder in the project (ELF sections, x86 machine code,
    DWARF CFI).  Values are appended at the end; previously written bytes
    can be patched in place, which is how label/relocation fixups are
    resolved. *)

type t

(** [create ?capacity ()] is an empty buffer. *)
val create : ?capacity:int -> unit -> t

(** Number of bytes written so far. *)
val length : t -> int

(** {1 Appending} *)

val u8 : t -> int -> unit
val u16 : t -> int -> unit
val u32 : t -> int -> unit
val u64 : t -> int -> unit
val i8 : t -> int -> unit
val i16 : t -> int -> unit
val i32 : t -> int -> unit
val i64 : t -> int64 -> unit
val bytes : t -> Bytes.t -> unit
val string : t -> string -> unit

(** [cstring t s] appends [s] followed by a NUL byte. *)
val cstring : t -> string -> unit

(** [fill t ~count ~byte] appends [count] copies of [byte]. *)
val fill : t -> count:int -> byte:int -> unit

(** [pad_to t ~align ~byte] appends [byte] until [length t] is a multiple
    of [align]. *)
val pad_to : t -> align:int -> byte:int -> unit

(** {1 Patching}

    All patch functions raise [Invalid_argument] when the target range is
    not already written. *)

val patch_u32 : t -> at:int -> int -> unit
val patch_u64 : t -> at:int -> int -> unit

(** Snapshot of the written bytes. *)
val contents : t -> string

(** {1 DWARF varints} *)

(** Unsigned LEB128; raises [Invalid_argument] on negative input. *)
val uleb128 : t -> int -> unit

(** Signed LEB128. *)
val sleb128 : t -> int -> unit
