(** Repackage a synthetic binary as a PE32+ image with an exception
    directory, following the x64 Windows unwind ABI's coverage rule:
    non-leaf functions get RUNTIME_FUNCTION + UNWIND_INFO records, leaf
    functions are exempt — the reason the paper's §VII-B study sees
    "at least 70%" coverage rather than ~100%.  Non-contiguous functions
    get one record per part. *)

val image_base : int

val of_built : Fetch_synth.Link.built -> Image.t
