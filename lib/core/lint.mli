(** Adapter from a finished pipeline run to the cross-layer consistency
    linter ({!Fetch_check.Lint}): packages the run's layers — detected
    functions, committed instruction spans, FDE table, CFI oracle, §IV-E
    verdicts — into the linter's pipeline-agnostic view. *)

(** [view loaded res ~starts ~refs]: the linter view of the detection
    [res] on [loaded], keeping the functions at [starts], with [refs] the
    reference census of [res]. *)
val view :
  Fetch_analysis.Loaded.t ->
  Fetch_analysis.Recursive.result ->
  starts:int list ->
  refs:Refs.t ->
  Fetch_check.Lint.view

(** The linter view of a pipeline result: its kept starts and census. *)
val view_of : Pipeline.result -> Fetch_check.Lint.view

(** Lint a finished run: findings sorted most-severe-first. *)
val run : Pipeline.result -> Fetch_check.Finding.t list
