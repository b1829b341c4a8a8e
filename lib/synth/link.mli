(** Final assembly and linking: turn a lowered program into an ELF image
    with [.text], [.rodata], [.data], [.eh_frame] and (optionally)
    symbols, together with the ground-truth manifest. *)

val rodata_base : int
val data_base : int
val eh_frame_hdr_base : int
val eh_frame_base : int

type built = {
  image : Fetch_elf.Image.t;
  raw : string;  (** the encoded ELF file *)
  truth : Truth.t;
  program : Ir.program;
}

(** Compile, assemble and link a program.  [rng] continues the stream used
    to generate it (data decoys draw from it). *)
val build : profile:Profile.t -> rng:Fetch_util.Prng.t -> Ir.program -> built

(** Generate a program from a spec and build it, deterministically from
    [seed]. *)
val build_random : profile:Profile.t -> seed:int -> Gen.spec -> built
