(** Machine-readable run summaries.

    One serializer for everything a finished pipeline run can report —
    [levioso_sim --json] and the bench harness both emit through this
    module, so downstream tooling sees a single schema:

    {v
    {"workload": …, "policy": …,
     "stats": {cycles, ipc, mpki, …},
     "cache": {l1_hits, …},
     "stalls": {total, by_cause: {policy_gate, operand_wait, lsq_order,
                rob_full, exec_port}, top_pcs: […]},
     "audit": {…}}          (only when the run was audited)
    v}

    Summaries carry no wall clock, so they are byte-comparable across
    runs; [levioso_sim --json] appends a last ["host"] field
    ([Levioso_telemetry.Hostprof.phases_to_json]) to its own output. *)

val of_pipeline :
  ?workload:string ->
  ?policy:string ->
  ?top_k:int ->
  Pipeline.t ->
  Levioso_telemetry.Json.t
(** Summarize one finished run.  [workload]/[policy] label the cell when
    given; [top_k] (default 10) bounds the costliest-PC lists in the
    stall and audit breakdowns.  When the pipeline was created with an
    audit recorder, an ["audit"] section
    ([Levioso_telemetry.Audit.to_json]) is appended. *)

val of_sampled :
  ?workload:string ->
  ?policy:string ->
  ?top_k:int ->
  Sampler.result ->
  Levioso_telemetry.Json.t
(** Summarize a two-tier sampled run: same shape as {!of_pipeline}
    (stats/cache/stalls cover the detailed intervals) plus a ["sampled"]
    section carrying the cycle estimate, its error bound and the interval
    accounting. *)

val runs : Levioso_telemetry.Json.t list -> Levioso_telemetry.Json.t
(** Wrap per-run summaries as [{"schema_version": …, "runs": […]}] — for
    harnesses that serialize each cell as it finishes instead of keeping
    every pipeline (8 MB of simulated memory each) alive. *)

val matrix :
  (string * string * Pipeline.t) list -> Levioso_telemetry.Json.t
(** [matrix cells] with [(workload, policy, pipe)] triples:
    [{"runs": [summary, …]}]. *)
