(* levioso_sim: run suite workloads under secure-speculation defenses and
   report cycles / IPC / overhead versus the unsafe baseline.

   Examples:
     levioso_sim                          # whole suite x all policies
     levioso_sim -w stream -p levioso -v  # one cell, verbose stats
     levioso_sim -w pchase --rob 384 --predictor bimodal
     levioso_sim -w stream -p unsafe -p levioso --json    # machine-readable
     levioso_sim -w stream -p levioso --trace-out t.json  # Perfetto trace
     levioso_sim -j 8                     # cells on 8 domains

   Every (workload, policy) cell owns all of its mutable state, so the
   matrix runs on a domain pool (-j, default all cores) with output
   bit-identical to a serial run.  Tracing interleaves events from one
   cell at a time, so -j is forced to 1 when --trace/--trace-out is
   given. *)

module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Sim_stats = Levioso_uarch.Sim_stats
module Summary = Levioso_uarch.Summary
module Registry = Levioso_core.Registry
module Json = Levioso_telemetry.Json
module Trace = Levioso_telemetry.Trace
module Audit = Levioso_telemetry.Audit
module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Report = Levioso_util.Report
module Stats = Levioso_util.Stats
module Parallel = Levioso_util.Parallel
module Timeline = Levioso_telemetry.Timeline
module Monitor = Levioso_telemetry.Monitor
module Hostprof = Levioso_telemetry.Hostprof
module Konata = Levioso_uarch.Konata
module Sampler = Levioso_uarch.Sampler
module Flowtrace = Levioso_telemetry.Flowtrace
module Gadget = Levioso_attack.Gadget
module Catalog = Levioso_serve.Catalog
module Engine = Levioso_serve.Engine
module Protocol = Levioso_serve.Protocol

let trace_event_of = function
  | Pipeline.Fetched { seq; pc } ->
    ("fetch", seq, pc, [])
  | Pipeline.Issued { seq; pc } -> ("issue", seq, pc, [])
  | Pipeline.Completed { seq; pc } -> ("complete", seq, pc, [])
  | Pipeline.Committed { seq; pc } -> ("commit", seq, pc, [])
  | Pipeline.Branch_resolved { seq; pc; taken; mispredicted } ->
    ( "resolve",
      seq,
      pc,
      [ ("taken", Json.Bool taken); ("mispredicted", Json.Bool mispredicted) ]
    )
  | Pipeline.Squashed { boundary; count } ->
    ("squash", boundary, -1, [ ("count", Json.Int count) ])

(* The pre-run hook levioso_sim hands Engine.run_cell: everything that
   observes a run attaches to the fresh pipeline here.  [set_tracer]
   holds a single callback, so text tracing, the structured sink and the
   timeline multiplex inside one closure. *)
let attach ~trace ?sink ?audit_sink ?timeline ?flow pipe =
  let text_remaining = ref trace in
  if trace > 0 || sink <> None || timeline <> None then
    Pipeline.set_tracer pipe (fun ~cycle event ->
        if !text_remaining > 0 then begin
          decr text_remaining;
          Printf.printf "[%6d] %s\n" cycle (Pipeline.event_to_string event)
        end;
        (match timeline with
        | Some tl -> Konata.feed tl ~cycle event
        | None -> ());
        match sink with
        | None -> ()
        | Some s ->
          let stage, seq, pc, args = trace_event_of event in
          Trace.emit s { Trace.cycle; seq; pc; stage; args });
  (match timeline with
  | Some tl ->
    Pipeline.set_stall_tracer pipe (fun ~cycle ~seq ~pc ~cause ->
        Konata.feed_stall tl ~cycle ~seq ~pc ~cause)
  | None -> ());
  (match flow with
  | Some (secret_ranges, cb) -> Pipeline.set_flow_tracer pipe ~secret_ranges cb
  | None -> ());
  match (audit_sink, Pipeline.audit pipe) with
  | Some s, Some a -> Audit.attach_sink a s
  | _ -> ()

(* Rendered from the cell's summary, so one renderer serves exact and
   sampled cells, and to a string, so parallel runs can print cell
   reports in deterministic workload x policy order after the pool
   drains. *)
let verbose_report ~sample w p summary =
  let buf = Buffer.create 1024 in
  let row k v = Buffer.add_string buf (Printf.sprintf "  %-32s %s\n" k v) in
  let get path = List.fold_left (fun j k -> Json.member_exn k j) summary path in
  let int path = Json.to_int_exn (get path) in
  (match sample with
  | None -> Buffer.add_string buf (Printf.sprintf "== %s / %s ==\n" w p)
  | Some sp ->
    Buffer.add_string buf
      (Printf.sprintf "== %s / %s (sampled %s) ==\n" w p
         (Sampler.spec_to_string sp));
    row "estimated cycles"
      (Printf.sprintf "%d (+/- %.2f%%)"
         (int [ "sampled"; "estimated_cycles" ])
         (Json.to_float_exn (get [ "sampled"; "error_pct" ])));
    row "instrs in detail"
      (Printf.sprintf "%d of %d (%d intervals)"
         (int [ "sampled"; "detailed_instrs" ])
         (int [ "sampled"; "total_instrs" ])
         (int [ "sampled"; "intervals" ])));
  (* the stats block holds the detailed counters, not the estimate *)
  (match Sim_stats.of_json (get [ "stats" ]) with
  | Ok stats -> List.iter (fun (k, v) -> row k v) (Sim_stats.to_rows stats)
  | Error msg -> row "stats" msg);
  let counts path =
    match get path with
    | Json.Obj kv -> List.map (fun (k, v) -> (k, Json.to_int_exn v)) kv
    | _ -> []
  in
  List.iter (fun (k, n) -> row k (string_of_int n)) (counts [ "cache" ]);
  List.iter
    (fun (cause, n) -> row ("stall " ^ cause) (string_of_int n))
    (counts [ "stalls"; "by_cause" ]);
  row "stall total" (string_of_int (int [ "stalls"; "total" ]));
  if Json.member "audit" summary <> None then begin
    let with_events kind =
      Printf.sprintf "%d (%d events)"
        (int [ "audit"; kind; "cycles" ])
        (int [ "audit"; kind; "events" ])
    in
    row "audit events" (string_of_int (int [ "audit"; "events" ]));
    row "audit restricted cycles" (string_of_int (int [ "audit"; "cycles" ]));
    row "audit necessary cycles" (with_events "necessary");
    row "audit unnecessary cycles" (with_events "unnecessary");
    row "audit unnecessary share"
      (Printf.sprintf "%.1f%%"
         (100.0 *. Json.to_float_exn (get [ "audit"; "unnecessary_share" ])))
  end;
  Buffer.contents buf

let parse_window = function
  | None -> Ok None
  | Some s ->
    Result.map Option.some (Flowtrace.parse_range ~what:"--timeline-window" s)

let parse_secret_ranges specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
      match Flowtrace.parse_range ~what:"--secret-range" s with
      | Ok r -> go (r :: acc) rest
      | Error _ as e -> e)
  in
  go [] specs

let main workload_names policy_names rob predictor budget verbose trace json
    trace_out trace_every jobs audit_flag audit_out timeline_out
    timeline_window leak_trace secret_range_specs progress progress_file
    metrics_file sample list_workloads list_policies =
  if list_workloads || list_policies then begin
    (* the same roster the levioso_serve wire protocol's `list` request
       advertises — one name set across every surface *)
    if list_workloads then
      List.iter
        (fun (n, d) -> Printf.printf "%-16s %s\n" n d)
        (Catalog.listing ());
    if list_policies then
      List.iter print_endline (Catalog.policies ());
    `Ok ()
  end
  else
  let config =
    {
      Config.default with
      Config.rob_size = rob;
      predictor;
      depset_budget = budget;
    }
  in
  let workloads =
    match workload_names with
    | [] -> Suite.all
    | names -> List.map Catalog.find_workload_exn names
  in
  let policies =
    match policy_names with
    | [] -> Registry.names
    | names ->
      List.iter (fun n -> ignore (Registry.find_exn n : Pipeline.policy_maker)) names;
      names
  in
  match Sampler.parse sample with
  | Error msg -> `Error (false, msg)
  | Ok sample_spec ->
  if trace_every < 1 then `Error (false, "--trace-every must be >= 1")
  else if jobs < 0 then `Error (false, "-j expects a non-negative integer")
  else if
    sample_spec <> None
    && (trace > 0 || trace_out <> None || audit_flag || audit_out <> None
       || timeline_out <> None || leak_trace <> None)
  then
    `Error
      ( false,
        "--sample runs the two-tier engine, which does not preserve the \
         per-event streams: drop --trace/--trace-out/--audit/--audit-out/\
         --timeline/--leak-trace or use --sample off" )
  else if
    timeline_out <> None
    && (List.length workloads <> 1 || List.length policies <> 1)
  then
    `Error
      ( false,
        "--timeline records a single cell: pick exactly one workload (-w) \
         and one policy (-p)" )
  else if timeline_out = None && timeline_window <> None then
    `Error (false, "--timeline-window needs --timeline")
  else if
    leak_trace <> None
    && (List.length workloads <> 1 || List.length policies <> 1)
  then
    `Error
      ( false,
        "--leak-trace records a single cell: pick exactly one workload (-w) \
         and one policy (-p)" )
  else if leak_trace = None && secret_range_specs <> [] then
    `Error (false, "--secret-range needs --leak-trace")
  else begin
    match
      ( parse_window timeline_window,
        parse_secret_ranges secret_range_specs )
    with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok window, Ok secret_ranges ->
    let secret_ranges =
      (* the stock gadget's secret slot is the natural default *)
      if
        leak_trace <> None && secret_ranges = []
        && List.exists (fun (w : Workload.t) -> w.Workload.name = "spectre-v1") workloads
      then [ (Gadget.oob_secret_addr, Gadget.oob_secret_addr) ]
      else secret_ranges
    in
    if leak_trace <> None && secret_ranges = [] then
      `Error
        ( false,
          "--leak-trace needs at least one --secret-range A:B (only the \
           spectre-v1 workload has a built-in default)" )
    else begin
    let trace_channel = Option.map open_out trace_out in
    let sink =
      Option.map
        (fun oc ->
          let format =
            Trace.format_of_filename (Option.get trace_out)
          in
          Trace.to_channel ~every:trace_every ~format oc)
        trace_channel
    in
    let audit_channel = Option.map open_out audit_out in
    let audit_sink =
      Option.map
        (fun oc ->
          Trace.to_channel
            ~format:(Trace.format_of_filename (Option.get audit_out))
            oc)
        audit_channel
    in
    let audit_flag = audit_flag || audit_sink <> None in
    (* Tracing (and an audit event stream) funnels every cell's events
       into one channel in run order, so it pins the matrix to one
       domain.  A timeline is single-cell by construction. *)
    let jobs =
      if sink <> None || audit_sink <> None || trace > 0 || timeline_out <> None
      then 1
      else if jobs = 0 then Parallel.default_size ()
      else jobs
    in
    let cells =
      List.concat_map (fun w -> List.map (fun p -> (w, p)) policies) workloads
    in
    (* Single cell when --timeline is given, so one builder suffices. *)
    let timeline =
      Option.map
        (fun _ ->
          Konata.timeline ?window
            (List.hd workloads).Workload.program)
        timeline_out
    in
    (* Leak tracing is single-cell too: one graph, and (for .jsonl
       output) the raw event stream written as it happens. *)
    let flow_graph = Option.map (fun _ -> Flowtrace.create ()) leak_trace in
    let flow_jsonl =
      match leak_trace with
      | Some path when Filename.check_suffix path ".jsonl" ->
        let oc = open_out path in
        output_string oc
          (Json.to_string ~minify:true
             (Levioso_telemetry.Schema.tag
                [ ("kind", Json.String "levioso-flowtrace-events") ])
          ^ "\n");
        Some oc
      | _ -> None
    in
    (* With --timeline as well, tainted instructions get highlighted
       source/transmit marks in the Konata view. *)
    let flow_to_timeline =
      match (timeline, flow_graph) with
      | Some tl, Some _ -> Some (Konata.flow_feeder tl)
      | _ -> None
    in
    let flow =
      Option.map
        (fun g ->
          ( secret_ranges,
            fun ~cycle ev ->
              Flowtrace.feed g ~cycle ev;
              Option.iter (fun f -> f ~cycle ev) flow_to_timeline;
              match flow_jsonl with
              | Some oc ->
                output_string oc
                  (Json.to_string ~minify:true
                     (Flowtrace.event_to_json ~cycle ev)
                  ^ "\n")
              | None -> () ))
        flow_graph
    in
    let monitor =
      if progress || progress_file <> None || metrics_file <> None then
        Some
          (* status line on a TTY, auto-suppressed when stderr is piped;
             --progress forces it regardless *)
          (Monitor.create ~ansi:stderr ~force_ansi:progress
             ?json_path:progress_file ?metrics_path:metrics_file
             ~total:(List.length cells) ~label:"levioso_sim" ())
      else None
    in
    let run_cell ((w : Workload.t), p) =
      Option.iter
        (fun m -> Monitor.start m (w.Workload.name ^ "/" ^ p))
        monitor;
      (match sink with
      | Some s -> Trace.begin_process s ~name:(w.Workload.name ^ "/" ^ p)
      | None -> ());
      (match audit_sink with
      | Some s -> Trace.begin_process s ~name:(w.Workload.name ^ "/" ^ p)
      | None -> ());
      let o =
        Engine.run_cell
          ~attach:(attach ~trace ?sink ?audit_sink ?timeline ?flow)
          {
            Protocol.config;
            workload = w.Workload.name;
            policy = p;
            audit = audit_flag;
            sample = sample_spec;
          }
      in
      Option.iter (fun m -> Monitor.item_done m ~wall_s:o.Engine.wall_s ()) monitor;
      let verbose_text =
        if verbose then begin
          let text =
            verbose_report ~sample:sample_spec w.Workload.name p o.Engine.summary
          in
          (* serial runs keep the report interleaved with the cell's
             trace output, exactly as before *)
          if jobs = 1 then begin
            print_string text;
            None
          end
          else Some text
        end
        else None
      in
      (* the host section goes last, where the summary builders put
         it; it carries wall clock, so only this CLI's output has it *)
      let summary =
        match o.Engine.summary with
        | Json.Obj fields ->
          Json.Obj (fields @ [ ("host", Hostprof.phases_to_json o.Engine.host) ])
        | other -> other
      in
      (p, o.Engine.stats.Sim_stats.cycles, summary, verbose_text)
    in
    let results = Parallel.with_pool ~size:jobs (fun pool ->
        Parallel.map pool run_cell cells)
    in
    Option.iter Monitor.close monitor;
    List.iter
      (fun (_, _, _, verbose_text) -> Option.iter print_string verbose_text)
      results;
    let rows =
      (* regroup the flat, order-preserved cell list by workload *)
      let rec chunk = function
        | [] -> []
        | results ->
          let n = List.length policies in
          let row = List.filteri (fun i _ -> i < n) results in
          let rest = List.filteri (fun i _ -> i >= n) results in
          List.map (fun (p, c, s, _) -> (p, c, s)) row :: chunk rest
      in
      List.map2 (fun w cells -> (w, cells)) workloads (chunk results)
    in
    (match sink with
    | Some s ->
      Trace.close s;
      Option.iter close_out trace_channel;
      if not json then
        Printf.eprintf "trace: wrote %d of %d events to %s\n%!"
          (Trace.written s) (Trace.seen s) (Option.get trace_out)
    | None -> ());
    (match audit_sink with
    | Some s ->
      Trace.close s;
      Option.iter close_out audit_channel;
      if not json then
        Printf.eprintf "audit: wrote %d restriction events to %s\n%!"
          (Trace.written s) (Option.get audit_out)
    | None -> ());
    (match (timeline, timeline_out) with
    | Some tl, Some path ->
      let meta =
        [
          ("workload", (List.hd workloads).Workload.name);
          ("policy", List.hd policies);
        ]
      in
      let oc = open_out_bin path in
      Timeline.write_konata ~meta tl oc;
      close_out oc;
      Printf.eprintf
        "timeline: wrote %d of %d instructions to %s (open in Konata)\n%!"
        (Timeline.recorded tl) (Timeline.seen tl) path
    | _ -> ());
    (match (flow_graph, leak_trace) with
    | Some g, Some path -> (
      match flow_jsonl with
      | Some oc ->
        close_out oc;
        if not json then
          Printf.eprintf "leak-trace: wrote event stream to %s\n%!" path
      | None ->
        let content =
          if Filename.check_suffix path ".json" then
            Json.to_string (Flowtrace.to_json g) ^ "\n"
          else Flowtrace.render g
        in
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        if not json then
          Printf.eprintf "leak-trace: wrote %s to %s\n%!"
            (if Flowtrace.is_empty g then
               "empty leak graph (no tainted transmits)"
             else "leak graph")
            path)
    | _ -> ());
    if json then
      print_endline
        (Json.to_string
           (Summary.runs
              (List.concat_map
                 (fun (_, cells) -> List.map (fun (_, _, s) -> s) cells)
                 rows)))
    else begin
      (* The unsafe baseline anchors overhead percentages wherever it
         appears in the policy list, not only in front position. *)
      let baseline_of cells =
        Option.map (fun (_, c, _) -> c)
          (List.find_opt (fun (p, _, _) -> p = "unsafe") cells)
      in
      let header = "workload" :: List.map (fun p -> p ^ " (cyc)") policies in
      let body =
        List.map
          (fun ((w : Workload.t), cells) ->
            let base = baseline_of cells in
            w.Workload.name
            :: List.map
                 (fun (_, c, _) ->
                   match base with
                   | Some b when b > 0 && b <> c ->
                     Printf.sprintf "%d (%+.1f%%)" c
                       (Stats.overhead_pct ~baseline:(float_of_int b)
                          (float_of_int c))
                   | Some _ | None -> string_of_int c)
                 cells)
          rows
      in
      print_endline (Report.table ~header ~rows:body)
    end;
    `Ok ()
    end
  end

open Cmdliner

let workloads_arg =
  let doc =
    "Workload to run (repeatable, see --list-workloads). Known: "
    ^ String.concat ", " (Catalog.workload_names ())
    ^ " (spectre-v1 is the stock bounds-check-bypass gadget, the \
       canonical --leak-trace victim)."
  in
  Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let policies_arg =
  let doc =
    "Defense policy (repeatable). Known: " ^ String.concat ", " Registry.names
  in
  Arg.(value & opt_all string [] & info [ "p"; "policy" ] ~docv:"NAME" ~doc)

let rob_arg =
  Arg.(
    value
    & opt int Config.default.Config.rob_size
    & info [ "rob" ] ~docv:"N" ~doc:"Reorder-buffer size.")

let predictor_arg =
  let predictor_conv =
    Arg.enum
      [
        ("always-taken", Config.Always_taken);
        ("bimodal", Config.Bimodal);
        ("gshare", Config.Gshare);
        ("tage", Config.Tage);
      ]
  in
  Arg.(
    value
    & opt predictor_conv Config.default.Config.predictor
    & info [ "predictor" ] ~docv:"KIND"
        ~doc:"Branch predictor: always-taken, bimodal, gshare or tage.")

let budget_arg =
  Arg.(
    value
    & opt int Config.default.Config.depset_budget
    & info [ "budget" ] ~docv:"K" ~doc:"Dependency-set hardware budget.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full per-run statistics.")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"N"
        ~doc:"Print the first N microarchitectural events of each run.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the full workload x policy matrix as JSON (per-run stats, \
           cache counters and the per-cause stall breakdown) instead of the \
           table.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a structured event trace to $(docv): Chrome trace_event \
           JSON (open in Perfetto or chrome://tracing), or JSONL when the \
           file ends in .jsonl.")

let trace_every_arg =
  Arg.(
    value & opt int 1
    & info [ "trace-every" ] ~docv:"K"
        ~doc:"Sample the structured trace: keep every K-th event (default 1).")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Simulate (workload x policy) cells on $(docv) domains; 0 (the \
           default) uses every core.  Results are bit-identical to -j 1.  \
           Tracing (--trace/--trace-out/--audit-out) forces serial \
           execution.")

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Record restriction provenance: every policy refusal becomes an \
           audit event with its cause (the gating branches or tainted \
           producers) and a necessary/unnecessary classification against \
           the static branch-dependence analysis.  Verbose and --json \
           output gain an audit section.")

let audit_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-out" ] ~docv:"FILE"
        ~doc:
          "Stream every audit event to $(docv) (implies --audit): Chrome \
           trace_event JSON, or JSONL when the file ends in .jsonl.")

let timeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "Write an instruction-lifecycle pipeline trace (Kanata 0004 \
           format, open in Konata) to $(docv).  Records a single cell: \
           requires exactly one -w and one -p.  Stages F/I/X/C on lane 0, \
           per-cycle stall causes on lane 1, squashes as flush markers.")

let timeline_window_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline-window" ] ~docv:"A:B"
        ~doc:
          "Record only instructions fetched in cycles A..B (inclusive), so \
           million-cycle runs stay tractable.  Needs --timeline.")

let leak_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "leak-trace" ] ~docv:"FILE"
        ~doc:
          "Trace speculative information flow from secret data to \
           attacker-visible probes and write the leak graph to $(docv): \
           human-readable text by default, the structured graph when the \
           file ends in .json, or the raw event stream when it ends in \
           .jsonl.  Records a single cell: requires exactly one -w and one \
           -p.  Secret locations come from --secret-range (the spectre-v1 \
           workload has a built-in default).")

let secret_range_arg =
  Arg.(
    value & opt_all string []
    & info [ "secret-range" ] ~docv:"A:B"
        ~doc:
          "Word-address range (inclusive) holding secret data, seeding the \
           --leak-trace taint sources (repeatable).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Render an in-place live status line on stderr (cells done/total, \
           ETA, what each domain is simulating).  Purely observational: \
           results are bit-identical with or without it.")

let progress_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "progress-file" ] ~docv:"FILE"
        ~doc:
          "Periodically write a machine-readable progress snapshot to \
           $(docv) (atomic rename, safe to tail/poll).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Periodically write progress gauges in OpenMetrics text format to \
           $(docv) (atomic rename, scrapable).")

let sample_arg =
  Arg.(
    value & opt string "off"
    & info [ "sample" ] ~docv:"N:W[:P]"
        ~doc:
          "Two-tier sampled simulation: fast-forward architecturally with \
           functional cache/predictor warming, and simulate in cycle-level \
           detail only N instructions out of every P*N (default P = 10), \
           after W detailed warmup instructions.  Reported cycles are an \
           extrapolated estimate with a 95%-confidence error bound (the \
           $(b,sampled) section of --json).  $(b,off) (the default) runs \
           the ordinary full-detail simulation, bit-identical to builds \
           without this flag.  Incompatible with the per-event streams \
           (--trace/--audit/--timeline/--leak-trace).")

let list_workloads_arg =
  Arg.(
    value & flag
    & info [ "list-workloads" ]
        ~doc:
          "Print every resolvable workload (suite kernels, extras like \
           stream-xl, compiled Lev workloads, spectre-v1) with its \
           description, then exit.")

let list_policies_arg =
  Arg.(
    value & flag
    & info [ "list-policies" ]
        ~doc:"Print every registered defense policy, then exit.")

let cmd =
  let doc = "simulate workloads under secure-speculation defenses" in
  let info = Cmd.info "levioso_sim" ~doc in
  Cmd.v info
    Term.(
      ret
        (const main $ workloads_arg $ policies_arg $ rob_arg $ predictor_arg
       $ budget_arg $ verbose_arg $ trace_arg $ json_arg $ trace_out_arg
       $ trace_every_arg $ jobs_arg $ audit_arg $ audit_out_arg
       $ timeline_arg $ timeline_window_arg $ leak_trace_arg
       $ secret_range_arg $ progress_arg $ progress_file_arg $ metrics_arg
       $ sample_arg $ list_workloads_arg $ list_policies_arg))

let () = exit (Cmd.eval cmd)
