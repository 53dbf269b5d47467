(** The one execution path for a (config, workload, policy) cell, shared
    by the daemon, [bench] (local and [--remote]) and [levioso_sim].

    It makes exactly one sequence of calls per cell — [Pipeline.create]
    → [Pipeline.run] → [Summary.of_pipeline], or [Sampler.run] →
    [Summary.of_sampled] for a sampled cell, with no host section in the
    summary — so a summary is bit-identical whichever surface ran it,
    remote or local, and whether it was simulated or replayed. *)

type scope = {
  spans : Levioso_telemetry.Span.t;
  trace : string;  (** request trace id the cell belongs to *)
  parent : int;  (** the cell span's id — stage spans nest under it *)
}
(** Where to hang this cell's stage spans.  Omitted = tracing off: no
    span clock reads, no span allocation. *)

type outcome = {
  summary : Levioso_telemetry.Json.t;
  stats : Levioso_uarch.Sim_stats.t;
      (** the summary's counters; for a sampled cell [stats.cycles] is
          the extrapolated estimate (see {!stats_of_summary}) *)
  source : string;  (** ["sim"] or ["cache"] *)
  wall_s : float;
  stages : (string * float) list;
      (** per-stage durations in execution order (["cache_probe"],
          ["replay"], ["simulate"]) — non-empty only when a [scope] was
          passed; feeds the daemon's access log *)
  host : (string * Levioso_telemetry.Hostprof.span) list;
      (** host self-profiling phases: ["create"] and ["run"] for a full
          run, ["run"] for a sampled one, ["replay"] for a store hit *)
}

val validate_cell : Protocol.cell -> (unit, string) result
(** Config sanity, workload/policy existence, audit×sample conflict.
    The daemon checks per cell and turns a failure into that cell's
    [error] result while the rest of the batch proceeds. *)

val cacheable : Protocol.cell -> bool
(** Plain cells only: audited and sampled summaries never enter (or
    replay from) the store. *)

val stats_of_summary :
  Levioso_telemetry.Json.t -> (Levioso_uarch.Sim_stats.t, string) result
(** Counters of a summary produced by {!run_cell} (stored, or streamed
    back by a daemon): the schema version must be current and the stats
    block must parse.  A sampled summary's estimate replaces
    [cycles]. *)

val run_cell :
  ?cache:Levioso_uarch.Run_cache.t ->
  ?scope:scope ->
  ?attach:(Levioso_uarch.Pipeline.t -> unit) ->
  Protocol.cell ->
  outcome
(** Replay from [cache] when the cell is {!cacheable} and a stored
    summary passes {!stats_of_summary}; otherwise simulate (full or
    sampled, with an audit recorder when the cell asks for one) and, if
    cacheable, store the summary.  [attach] runs on a full run's
    pipeline between creation and the run — where tracers and sinks are
    attached; it is not called for replayed or sampled cells.  With a
    [scope], emits [cache_probe]/[replay]/[simulate] child spans
    (hit/miss and workload/policy attributes) and fills [stages]; the
    summary bits are identical either way.

    @raise Invalid_argument on unknown workload/policy names; call
    {!validate_cell} first. *)
