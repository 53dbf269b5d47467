module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sampler = Levioso_uarch.Sampler
module Summary = Levioso_uarch.Summary
module Sim_stats = Levioso_uarch.Sim_stats
module Run_cache = Levioso_uarch.Run_cache
module Registry = Levioso_core.Registry
module Explain = Levioso_core.Explain
module Json = Levioso_telemetry.Json
module Schema = Levioso_telemetry.Schema
module Span = Levioso_telemetry.Span
module Hostprof = Levioso_telemetry.Hostprof
module Workload = Levioso_workload.Workload

type scope = { spans : Span.t; trace : string; parent : int }

type outcome = {
  summary : Json.t;
  stats : Sim_stats.t;
  source : string;
  wall_s : float;
  stages : (string * float) list;
  host : (string * Hostprof.span) list;
}

let validate_cell (c : Protocol.cell) =
  let ( let* ) = Result.bind in
  let* () = Config.validate c.Protocol.config in
  let* () =
    match Catalog.find_workload c.Protocol.workload with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "unknown workload %S" c.Protocol.workload)
  in
  let* () =
    match Registry.find c.Protocol.policy with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "unknown policy %S" c.Protocol.policy)
  in
  if c.Protocol.audit && c.Protocol.sample <> None then
    Error "audit cannot be combined with sampling (no per-event stream)"
  else Ok ()

let cacheable (c : Protocol.cell) =
  (* Audited summaries carry provenance the key does not cover, and
     sampled summaries are estimates: neither may replay as (or shadow)
     an exact run. *)
  (not c.Protocol.audit) && c.Protocol.sample = None

(* Figures read [stats.cycles]; for a sampled cell it must carry the
   extrapolated estimate, not the detailed-interval count the summary's
   stats block holds.  Fresh, replayed and remote cells all pass here. *)
let with_estimate summary (stats : Sim_stats.t) =
  (match
     Option.bind (Json.member "sampled" summary) (Json.member "estimated_cycles")
   with
  | Some (Json.Int n) -> stats.Sim_stats.cycles <- n
  | _ -> ());
  stats

let stats_of_summary summary =
  let ( let* ) = Result.bind in
  let* () = Schema.check ~what:"cell summary" summary in
  match Json.member "stats" summary with
  | None -> Error "cell summary has no stats block"
  | Some block -> Result.map (with_estimate summary) (Sim_stats.of_json block)

(* Stage timing is Option-gated on [scope]: with tracing off no clock
   is read and no span allocated, so the untraced path is exactly the
   PR 8 one.  Summaries themselves never depend on [scope] — tracing is
   bit-effect-free on results either way.  [attrs] sees the stage's
   result so a probe can tag itself hit/miss. *)
let staged scope name ?(attrs = fun _ -> []) stages f =
  match scope with
  | None -> f ()
  | Some { spans; trace; parent } ->
    let sp = Span.start spans ~trace ~parent name in
    let t0 = Span.now spans in
    let record more_attrs =
      stages := (name, Span.now spans -. t0) :: !stages;
      Span.finish spans ~attrs:more_attrs sp
    in
    (match f () with
    | v ->
      record (attrs v);
      v
    | exception e ->
      record [ ("error", Printexc.to_string e) ];
      raise e)

(* The one place a cell is simulated.  [attach] sees the pipeline after
   creation and before the run, so tracers and sinks observe every
   event; nothing it can attach changes the summary. *)
let simulate ?attach (c : Protocol.cell) =
  let w = Catalog.find_workload_exn c.Protocol.workload in
  let policy = Registry.find_exn c.Protocol.policy in
  let workload = c.Protocol.workload and config = c.Protocol.config in
  let mem_init = w.Workload.mem_init and program = w.Workload.program in
  match c.Protocol.sample with
  | Some sp ->
    let r, run =
      Hostprof.measure (fun () -> Sampler.run ~mem_init sp config ~policy program)
    in
    let summary = Summary.of_sampled ~workload ~policy:c.Protocol.policy r in
    (summary, with_estimate summary r.Sampler.stats, [ ("run", run) ])
  | None ->
    (* each cell gets a private recorder, so -j N stays bit-identical *)
    let audit =
      if c.Protocol.audit then Some (Explain.audit_for program) else None
    in
    let pipe, create =
      Hostprof.measure (fun () ->
          Pipeline.create ~mem_init ?audit config ~policy program)
    in
    Option.iter (fun f -> f pipe) attach;
    let (), run = Hostprof.measure (fun () -> Pipeline.run pipe) in
    ( Summary.of_pipeline ~workload ~policy:c.Protocol.policy pipe,
      Pipeline.stats pipe,
      [ ("create", create); ("run", run) ] )

let probe scope stages store (c : Protocol.cell) =
  let found =
    staged scope "cache_probe"
      ~attrs:(fun r -> [ ("hit", if r = None then "false" else "true") ])
      stages
      (fun () ->
        Run_cache.find store ~config:c.Protocol.config
          ~workload:c.Protocol.workload ~policy:c.Protocol.policy)
  in
  Option.bind found (fun summary ->
      staged scope "replay"
        ~attrs:(fun r ->
          [ ("replayable", if r = None then "false" else "true") ])
        stages
        (fun () ->
          match stats_of_summary summary with
          | Ok stats -> Some (summary, stats)
          | Error _ -> None))

let run_cell ?cache ?scope ?attach (c : Protocol.cell) =
  let cache = if cacheable c then cache else None in
  let stages = ref [] in
  let t0 = Unix.gettimeofday () in
  let finish source (summary, stats, host) =
    {
      summary;
      stats;
      source;
      wall_s = Unix.gettimeofday () -. t0;
      stages = List.rev !stages;
      host;
    }
  in
  let replayed =
    Option.bind cache (fun store ->
        match Hostprof.measure (fun () -> probe scope stages store c) with
        | Some (summary, stats), span ->
          Some (summary, stats, [ ("replay", span) ])
        | None, _ -> None)
  in
  match replayed with
  | Some hit -> finish "cache" hit
  | None ->
    let ((summary, _, _) as fresh) =
      staged scope "simulate"
        ~attrs:(fun _ ->
          [ ("workload", c.Protocol.workload); ("policy", c.Protocol.policy) ])
        stages
        (fun () -> simulate ?attach c)
    in
    Option.iter
      (fun store ->
        Run_cache.store store ~config:c.Protocol.config
          ~workload:c.Protocol.workload ~policy:c.Protocol.policy summary)
      cache;
    finish "sim" fresh
