(** The Levioso hardware mechanism: compiler-informed selective delay.

    Dependency tracking per dynamic branch instance, in the shared
    {!Levioso_uarch.Depmatrix}: one bitset row per ROB slot whose columns
    are the in-flight branch instances the slot's instruction depends on.

    + {b Active-branch set} (front end, kept in the matrix's scratch row).
      When a conditional branch is decoded it becomes {e active}.  When
      fetch reaches the branch's compiler-annotated reconvergence pc, the
      instance deactivates: instructions decoded from then on do not
      {e exist} conditionally on that branch.  (Branches annotated
      [No_reconvergence] deactivate only by resolving.)
    + {b Control dependencies}.  Each decoded instruction's row starts as
      a copy of the active set.
    + {b Data dependencies}.  At rename the row additionally ORs in the
      rows of the instruction's in-flight producers, so values computed
      under a branch keep carrying that branch past the reconvergence
      point.
    + {b Tag broadcast}.  A resolving branch clears its column in every
      row, so a row only ever names unresolved branches.
    + {b Issue gate}.  A transmitter may begin execution only when its row
      is empty.  Everything else executes unrestricted — this is the
      entire performance advantage over
      {!Levioso_secure.Baselines.delay}, which waits on {e all} older
      branches.

    A row whose popcount exceeds the hardware budget
    ({!Levioso_uarch.Config.t}[.depset_budget]) saturates and degrades
    soundly to "wait for all older branches".

    The [track_data] flag exists for the ablation figure: switching it off
    gates only on control dependence, which is cheaper but no longer covers
    operand-propagation leaks past reconvergence. *)

val maker : ?track_data:bool -> unit -> Levioso_uarch.Pipeline.policy_maker
(** The compiler pass runs on the program given to the pipeline.
    [track_data] defaults to [true]. *)
