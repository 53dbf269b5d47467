(** Host self-profiling: wall clock + allocator behavior per phase.

    Wraps a computation with [Unix.gettimeofday] and GC counter
    deltas so every JSON summary and bench-matrix cell can carry a
    [host] section.  Allocation counts are near-deterministic for a
    deterministic computation (and therefore a useful regression
    metric); wall clock is not, which is why [host] sections are kept
    out of the byte-compared simulation artifacts and only attached to
    timing-oriented ones (cell provenance, [BENCH_matrix.json]). *)

type span = {
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;  (** peak major-heap size over the span *)
}

val measure : (unit -> 'a) -> 'a * span
(** Runs the thunk on the calling domain.  The word counts come from
    the domain-local [Gc.minor_words] and [Gc.counters], so the span
    reflects the calling domain's own allocation even while other
    domains allocate (or the thunk spawns them).  Collection counts and
    [top_heap_words] are process-wide. *)

val add : span -> span -> span
(** Componentwise sum; [top_heap_words] is the max. *)

val zero : span

val alloc_mwords : span -> float
(** Words allocated (minor + major - promoted, so promotions are not
    double-counted), in millions. *)

val to_json : span -> Json.t

val phases_to_json : (string * span) list -> Json.t
(** [{"phases": {name: span, ...}, "total": span}] — the [host]
    section attached to summaries and bench cells. *)
