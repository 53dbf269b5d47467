(** Whole-file replacement that readers never observe half-written. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] on a fresh [<path>.<pid>.<n>.tmp] and renames
    it over [path], so a concurrent reader sees the old file or the new
    one, never a torn one, and racing writers each publish a complete
    file (the last rename wins).  If [f] raises, the temp file is removed
    and the exception re-raised.  No fsync: the file survives a process
    crash, not necessarily a power loss. *)
