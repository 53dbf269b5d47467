(* What every workload gives the runner. *)

type outcome = {
  ok : bool;  (** the op's output matched its reference *)
  detail : string;  (** why not, when not [ok] *)
  sim_instrs : int;
      (** instructions committed by the cycle-level core during the op
          (replayed and fast-forwarded instructions count 0) *)
  share : float option;
      (** for an op that is itself a batch: wall time to its first result
          over its whole wall time *)
}

let pass ?(sim_instrs = 0) ?share () = { ok = true; detail = ""; sim_instrs; share }
let fail detail = { ok = false; detail; sim_instrs = 0; share = None }

type op = {
  label : string;  (** policy, oracle or batch kind *)
  group : int;
      (** consecutive ops with one group id form one in-process batch
          (a workload × the policies, or one case per oracle) *)
  sim_scope : bool;
      (** whether the op's CPU time counts toward [sim_kips]; false only
          for fuzz cases whose simulated work is not observable *)
  run : Tracer.t -> unit -> outcome;
      (** the timed call; returns the untimed output check *)
}

type t = {
  name : string;
  block : int;
      (** ops per block: a whole number of passes over the inputs (or
          rounds, or case groups) taking about a CPU second or more;
          throughput and the median op are medians over blocks *)
  blocks : int -> int;
      (** blocks measured for [--seconds n], fixed for a given [n] so
          every run of one seed does the same work *)
  calibrate_every : int;
      (** ops between calibration chunks (see Meter.calibrate), about
          0.4 CPU s of them.  A count, not a time, so the chunks, which
          allocate, fall at the same ops in every run of a seed and the
          GC's schedule repeats with them. *)
  op : int -> op;  (** the [i]-th op of the seeded sequence *)
  layers : Levioso_telemetry.Span.finished list -> (string * float) list;
      (** per-layer metrics from the spans and checks of traced ops *)
  close : unit -> unit;
}

let check_exn f =
  match f () with
  | o -> o
  | exception e -> fail ("check raised " ^ Printexc.to_string e)
