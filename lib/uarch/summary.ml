module Json = Levioso_telemetry.Json
module Stall = Levioso_telemetry.Stall
module Audit = Levioso_telemetry.Audit
module Schema = Levioso_telemetry.Schema

let of_pipeline ?workload ?policy ?(top_k = 10) pipe =
  let label key v =
    match v with
    | Some s -> [ (key, Json.String s) ]
    | None -> []
  in
  let audit =
    match Pipeline.audit pipe with
    | None -> []
    | Some a -> [ ("audit", Audit.to_json ~top_k a) ]
  in
  Json.Obj
    (Schema.field :: label "workload" workload
    @ label "policy" policy
    @ [
        ("stats", Sim_stats.to_json (Pipeline.stats pipe));
        ( "cache",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Int v))
               (Cache.Hierarchy.stats (Pipeline.hierarchy pipe))) );
        ("stalls", Stall.to_json ~top_k (Pipeline.stall_attribution pipe));
      ]
    @ audit)

let of_sampled ?workload ?policy ?(top_k = 10) (r : Sampler.result) =
  let label key v =
    match v with
    | Some s -> [ (key, Json.String s) ]
    | None -> []
  in
  Json.Obj
    (Schema.field :: label "workload" workload
    @ label "policy" policy
    @ [
        ("stats", Sim_stats.to_json r.Sampler.stats);
        ( "cache",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Int v))
               (Cache.Hierarchy.stats r.Sampler.hierarchy)) );
        ("stalls", Stall.to_json ~top_k r.Sampler.stall);
        ("sampled", Sampler.to_json r);
      ])

let runs summaries = Schema.tag [ ("runs", Json.List summaries) ]

let matrix cells =
  runs
    (List.map
       (fun (workload, policy, pipe) -> of_pipeline ~workload ~policy pipe)
       cells)
