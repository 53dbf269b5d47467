(** The dependency matrix of the Levioso hardware, shared by every policy
    that tracks dynamic dependencies ([levioso], [levioso-ctrl], [stt]).

    One bitset row per ROB slot ([seq mod rob_size]) plus one scratch row.
    A row's columns are ROB slots too: bit [c] of a row says the row's
    instruction depends on the in-flight instruction in slot [c] (a branch
    instance for Levioso, a taint root for STT).  Rows are
    [Sys.int_size - 1]-bit words, as many as [Config.rob_size] needs.

    Each row also carries a sticky {e saturation} flag, set by {!seal} once
    the row's popcount exceeds [Config.depset_budget] and inherited by every
    row built from it; a saturated row has lost its members and degrades
    soundly to "wait for every older branch".

    Slots are reused, so a stale bit would later name a younger
    instruction that lands in the same slot.  Users therefore clear a
    column with {!broadcast} (the hardware tag broadcast) as soon as its
    instruction stops constraining anything, never lazily at read time. *)

type t

val create : Config.t -> t
(** Every row empty and unsaturated. *)

val slot : t -> int -> int
(** [slot m seq]: the row, and the column, of sequence number [seq]. *)

val scratch : t -> int
(** The extra row, owned by the policy for unions and working sets. *)

val clear : t -> int -> unit
(** Empty a row and drop its saturation. *)

val add : t -> int -> col:int -> unit

val mem : t -> int -> col:int -> bool

val union_into : t -> dst:int -> src:int -> unit
(** OR [src]'s bits and saturation into [dst]. *)

val inherit_producers : t -> Pipeline.t -> dst:int -> seq:int -> unit
(** OR into [dst] the row of every producer of [seq]'s operands that is
    still in flight.  A committed producer's slot may already hold a
    younger instruction, so it is skipped. *)

val seal : t -> int -> unit
(** Saturate the row if its popcount exceeds the budget. *)

val broadcast : t -> col:int -> unit
(** Clear one column in every row, the scratch row included. *)

val filter : t -> int -> (int -> bool) -> unit
(** Keep only the columns of the row that satisfy the predicate. *)

val retain_in_flight : t -> Pipeline.t -> int -> unit
(** Drop the columns whose slot holds no in-flight instruction (after a
    squash). *)

val may_issue : t -> Pipeline.t -> int -> seq:int -> bool
(** The shared issue gate for [seq], whose dependencies are in the given
    row: an empty row may issue; a saturated row waits until [seq] has no
    older unresolved branch. *)

val explain :
  t ->
  Pipeline.t ->
  int ->
  ((int * int) list -> Levioso_telemetry.Audit.reason) ->
  Levioso_telemetry.Audit.reason
(** [Overflow] for a saturated row; otherwise the row's in-flight members
    as [(seq, pc)] pairs, oldest first, passed to the given constructor. *)
