(* The metric table, the measuring loop and the metric definitions
   shared by the benchmark and its self-test. *)

module Json = Levioso_telemetry.Json
module Span = Levioso_telemetry.Span

let workloads = [ "matrix-detailed"; "sampled-xl"; "serve-mixed"; "fuzz-mix" ]

(* name, unit, better *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("ops_per_cpu_s", "1/s", "higher");
    ("sim_kips", "kinstr/s", "higher");
    ("op_p50_ms", "ms", "lower");
    ("op_tail_ms", "ms", "lower");
    ("alloc_kwords_per_op", "kwords", "lower");
    ("peak_rss_mb", "MB", "lower");
    ("first_result_share", "ratio", "lower");
  ]

let non_unsafe = List.filter (( <> ) "unsafe") Levioso_core.Registry.names
let oracles = List.map (fun (o : Levioso_fuzz.Oracle.t) -> o.Levioso_fuzz.Oracle.name) Levioso_fuzz.Oracle.all

let per_layer =
  [
    ("pipeline.unsafe.kcyc_per_s", "kcycles/s", "higher");
    ("pipeline.unsafe.words_per_cycle", "words", "lower");
    ("pipeline.create_ms", "ms", "lower");
  ]
  @ List.concat_map
      (fun p ->
        [
          (Printf.sprintf "policy.%s.ns_per_cycle" p, "ns", "lower");
          (Printf.sprintf "policy.%s.words_per_cycle" p, "words", "lower");
        ])
      non_unsafe
  @ [
      ("emulator.minstr_per_s", "Minstr/s", "higher");
      ("warming.ns_per_instr", "ns", "lower");
      ("sampler.kips", "kinstr/s", "higher");
      ("sampler.detailed_share", "ratio", "lower");
      ("sampler.fast_tier_share", "ratio", "lower");
      ("sampler.bound_pct", "%", "lower");
      ("sampler.err_pct", "%", "lower");
      ("checkpoint.capture_ms", "ms", "lower");
      ("checkpoint.resume_ms", "ms", "lower");
      ("run_cache.find_hit_us", "us", "lower");
      ("run_cache.find_miss_us", "us", "lower");
      ("run_cache.store_us", "us", "lower");
      ("run_cache.hit_ratio", "ratio", "higher");
      ("summary.build_us", "us", "lower");
      ("json.encode_us", "us", "lower");
      ("json.decode_us", "us", "lower");
      ("serve.ack_ms", "ms", "lower");
      ("serve.first_result_ms", "ms", "lower");
      ("serve.wire_us_per_cell", "us", "lower");
      ("serve.cell_hit_ms", "ms", "lower");
      ("serve.cell_miss_ms", "ms", "lower");
      ("lang.compile_us", "us", "lower");
      ("annotation.analyze_us", "us", "lower");
      ("fuzz.gen_us", "us", "lower");
    ]
  @ List.map (fun o -> (Printf.sprintf "fuzz.%s.case_ms" o, "ms", "lower")) oracles
  @ [
      ("gc.minor_collections_per_op", "count", "lower");
      ("gc.major_collections_per_op", "count", "lower");
      ("model.levioso_overhead_pct", "%", "lower");
      ("model.delay_overhead_pct", "%", "lower");
      ("model.stt_overhead_pct", "%", "lower");
      ("model.cycles_total", "cycles", "lower");
      ("trace.overhead_pct", "%", "lower");
    ]

let workdir = Filename.concat "perfbench" "_out"

let setup name ~seed ~seconds =
  match name with
  | "matrix-detailed" -> Matrix_detailed.setup ~seed ()
  | "sampled-xl" -> Sampled_xl.setup ~seed ()
  | "serve-mixed" -> Serve_mixed.setup ~workdir ~seed ~rounds:(Serve_mixed.rounds_for seconds) ()
  | "fuzz-mix" -> Fuzz_mix.setup ~seed ()
  | other ->
    invalid_arg
      (Printf.sprintf "unknown workload %s (known: %s)" other (String.concat ", " workloads))

(* ---------------------------------------------------------------- *)

type record = {
  op : Work.op;
  block : int;
  cpu_s : float;
  words : float;
  minor_gcs : int;
  major_gcs : int;
  outcome : Work.outcome;
}

let measure_one (t : Work.t) tracer ~first k =
  let op = t.Work.op (first + k) in
  let g0 = Meter.gc () in
  let c0 = Meter.cpu () in
  let m0 = Gc.minor_words () in
  let result = try Ok (op.Work.run tracer) with e -> Error e in
  let m1 = Gc.minor_words () in
  let c1 = Meter.cpu () in
  let g1 = Meter.gc () in
  let outcome =
    match result with
    | Ok check -> Work.check_exn check
    | Error e -> Work.fail ("op raised " ^ Printexc.to_string e)
  in
  {
    op;
    block = k / t.Work.block;
    cpu_s = c1 -. c0;
    words = m1 -. m0;
    minor_gcs = g1.Meter.minor_gcs - g0.Meter.minor_gcs;
    major_gcs = g1.Meter.major_gcs - g0.Meter.major_gcs;
    outcome;
  }

(* A calibration chunk runs before every [calibrate_every]-th op (about
   5% of a run). *)
let measure (t : Work.t) tracer ~first ~count =
  List.init count (fun k ->
      if k mod t.Work.calibrate_every = 0 then Meter.calibrate ();
      measure_one t tracer ~first k)

(* Median over batches of time to first result ÷ batch time.  An op
   that is a batch on the wire reports its own share (wall/wall: the
   client waits).  An in-process batch is a run of ops with one group
   id, computed serially and in a fixed order, so its first result lands
   after its first op whatever the ops cost: the share is 1 ÷ its ops.
   (A CPU ratio there would be the first policy's or oracle's share of
   the batch, which a speed-up of the others raises.) *)
let first_result_share records =
  let shares = List.filter_map (fun r -> r.outcome.Work.share) records in
  if shares <> [] then Meter.median shares
  else
    let groups = Hashtbl.create 64 in
    List.iter
      (fun r ->
        let g = r.op.Work.group in
        Hashtbl.replace groups g (1 + Option.value ~default:0 (Hashtbl.find_opt groups g)))
      records;
    Meter.median (Hashtbl.fold (fun _ n acc -> (1. /. float_of_int n) :: acc) groups [])

let sumf f records = Meter.sum (List.map f records)

(* Ops per CPU second and the median op are medians over blocks, so a
   burst of contention in one block does not move them, and ops of
   similar cost cannot swap ranks across blocks.  Simulated instructions
   per CPU second is one ratio over the run: per block it would follow
   how many instructions the block's inputs happen to hold. *)
let per_block f records =
  let blocks = List.sort_uniq compare (List.map (fun r -> r.block) records) in
  Meter.median (List.map (fun b -> f (List.filter (fun r -> r.block = b) records)) blocks)

let end_to_end_metrics ~setup_s records =
  let n = float_of_int (List.length records) in
  let ms = List.map (fun r -> r.cpu_s *. 1e3) records in
  let ops_per_s rs = float_of_int (List.length rs) /. sumf (fun r -> r.cpu_s) rs in
  let kips rs =
    let sim = List.filter (fun r -> r.op.Work.sim_scope) rs in
    sumf (fun r -> float_of_int r.outcome.Work.sim_instrs) sim /. sumf (fun r -> r.cpu_s) sim /. 1e3
  in
  [
    ("setup_s", setup_s);
    ("ops_per_cpu_s", per_block ops_per_s records);
    ("sim_kips", kips records);
    ("op_p50_ms", per_block (fun rs -> Meter.median (List.map (fun r -> r.cpu_s *. 1e3) rs)) records);
    ("op_tail_ms", Meter.tail ms);
    ("alloc_kwords_per_op", sumf (fun r -> r.words) records /. n /. 1e3);
    ("peak_rss_mb", Meter.peak_rss_mb ());
    ("first_result_share", first_result_share records);
  ]

(* Small traced runs of the other workloads fill the layers this one
   does not exercise; the probes always come from timed calls. *)
let battery ~except =
  let mini name ~ops make =
    if name = except then []
    else begin
      let t : Work.t = make () in
      let tr = Tracer.create ("perfbench-" ^ name) in
      ignore (measure t tr ~first:0 ~count:ops : record list);
      let m = t.Work.layers (Tracer.drain tr) in
      t.Work.close ();
      m
    end
  in
  List.concat
    [
      mini "matrix-detailed" ~ops:9 (fun () ->
          Matrix_detailed.setup ~kernels:[ Levioso_workload.Suite.find_exn "treewalk" ] ~seed:1 ());
      mini "serve-mixed" ~ops:Serve_mixed.round_len (fun () ->
          Serve_mixed.setup ~workdir ~seed:1 ~rounds:1 ());
      mini "sampled-xl" ~ops:9 (fun () -> Sampled_xl.setup ~seed:1 ());
      mini "fuzz-mix" ~ops:25 (fun () -> Fuzz_mix.setup ~seed:1 ());
      Probes.fast_tier ();
      Probes.checkpoint ();
    ]

let per_layer_metrics (t : Work.t) ~untraced ~traced spans =
  let n = float_of_int (List.length untraced) in
  let cpu rs = sumf (fun r -> r.cpu_s) rs /. float_of_int (List.length rs) in
  let own =
    t.Work.layers spans
    @ [
        ("gc.minor_collections_per_op", float_of_int (List.fold_left (fun s r -> s + r.minor_gcs) 0 untraced) /. n);
        ("gc.major_collections_per_op", float_of_int (List.fold_left (fun s r -> s + r.major_gcs) 0 untraced) /. n);
        ("trace.overhead_pct", (cpu traced /. cpu untraced -. 1.) *. 100.);
      ]
  in
  let rest = battery ~except:t.Work.name in
  (* the workload's own figure wins over the battery's *)
  List.map
    (fun (name, _, _) ->
      match List.assoc_opt name own with
      | Some v -> (name, v)
      | None -> (
        match List.assoc_opt name rest with
        | Some v -> (name, v)
        | None -> failwith ("no figure for per-layer metric " ^ name)))
    per_layer

(* ---------------------------------------------------------------- *)

let metric_json table values =
  Json.Obj
    (List.map
       (fun (name, unit, _) ->
         let v = List.assoc name values in
         if not (Float.is_finite v) then
           failwith (Printf.sprintf "metric %s is not finite (%f)" name v);
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       table)

(* The per-op CPU-time metrics at the reference host speed (see
   Meter.slowdown); setup_s is scaled where it is measured. *)
let at_reference_speed slowdown =
  List.map (fun (name, v) ->
      match name with
      | "op_p50_ms" | "op_tail_ms" -> (name, v /. slowdown)
      | "ops_per_cpu_s" | "sim_kips" -> (name, v *. slowdown)
      | _ -> (name, v))

(* Whether the failed ops leave the results correct.  lang-diff's Fail
   verdicts are a known defect of the Lev compiler: they count in
   [failed] but leave [correct] true.  Any other failed check, a Fail
   from any other oracle included, or an op or check that raised, means
   wrong results. *)
let correct ~workload failed =
  List.for_all
    (fun r ->
      let d = r.outcome.Work.detail in
      workload = "fuzz-mix" && r.op.Work.label = "lang-diff"
      && not (String.starts_with ~prefix:"op raised" d || String.starts_with ~prefix:"check raised" d))
    failed

let setup_repeats = 9

let run ~workload ~seed ~seconds ~trace =
  ignore (Sys.opaque_identity (Meter.kernel ()) : int);
  (* Set-up [setup_repeats] times, each from scratch; setup_s is the
     median (the first also carries process start-up), scaled to the
     reference speed by calibration chunks run between the set-ups, since
     host speed drifts over a run. *)
  let setups =
    List.init setup_repeats (fun k ->
        Meter.calibrate ();
        let c0 = if k = 0 then 0. else Meter.cpu () in
        let t = setup workload ~seed ~seconds in
        let s = Meter.cpu () -. c0 in
        if k < setup_repeats - 1 then t.Work.close ();
        (t, s))
  in
  Meter.calibrate ();
  let t = fst (List.nth setups (setup_repeats - 1)) in
  let raw_setup_s = Meter.median (List.map snd setups) in
  let setup_slowdown = Meter.slowdown () in
  let setup_s = raw_setup_s /. setup_slowdown in
  Printf.eprintf "set-ups (CPU s, as measured): %s; slowdown %.4f\n"
    (String.concat " " (List.map (fun (_, s) -> Printf.sprintf "%.4f" s) setups))
    setup_slowdown;
  let count = t.Work.block * t.Work.blocks seconds in
  let records, metrics =
    if not trace then begin
      let untraced = measure t Tracer.off ~first:0 ~count in
      t.Work.close ();
      let raw = end_to_end_metrics ~setup_s untraced in
      let slowdown = Meter.slowdown () in
      Printf.eprintf "host slowdown %.4f over %d calibration chunks; as measured:\n"
        slowdown (List.length !Meter.chunks);
      List.iter (fun (name, v) -> Printf.eprintf "  %-22s %.6g\n" name v) raw;
      (untraced, metric_json end_to_end (at_reference_speed slowdown raw))
    end
    else begin
      (* each op twice, alternately: untraced, then from a second set-up
         with spans on, so drifts in machine speed hit both alike *)
      let t2 = setup workload ~seed ~seconds in
      let tr = Tracer.create ("perfbench-" ^ workload) in
      let untraced, traced =
        List.split
          (List.init count (fun k ->
               let u = measure_one t Tracer.off ~first:0 k in
               (u, measure_one t2 tr ~first:0 k)))
      in
      let spans = Tracer.drain tr in
      t.Work.close ();
      t2.Work.close ();
      let values = per_layer_metrics t2 ~untraced ~traced spans in
      let path = Filename.concat workdir (Printf.sprintf "trace-%s-%d.json" workload seed) in
      let oc = open_out path in
      Span.write_chrome oc spans;
      close_out oc;
      Printf.eprintf "trace: %d spans in %s\n" (List.length spans) path;
      (untraced @ traced, metric_json per_layer values)
    end
  in
  let failed = List.filter (fun r -> not r.outcome.Work.ok) records in
  let correct = correct ~workload failed in
  List.iteri
    (fun k r ->
      if k < 20 then Printf.eprintf "failed op (%s): %s\n" r.op.Work.label r.outcome.Work.detail)
    failed;
  Printf.eprintf "%s seed %d: %d ops, %d failed, setup %.3f s (CPU)\n%!" workload seed
    (List.length records) (List.length failed) setup_s;
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (List.length records));
            ("failed", Json.Int (List.length failed));
            ("metrics", metrics);
          ]))

