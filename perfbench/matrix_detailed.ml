(* matrix-detailed: each op is one exact (suite kernel, policy) cell at
   Config.default — Pipeline.create, Pipeline.run, Summary.of_pipeline —
   checked against the architectural emulator.  Nearly all CPU lands in
   the detailed core and the policy hooks; serve, run_cache, the sampler
   and the emulator's fast tier are bypassed. *)

module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Pipeline = Levioso_uarch.Pipeline
module Config = Levioso_uarch.Config
module Sim_stats = Levioso_uarch.Sim_stats
module Summary = Levioso_uarch.Summary
module Registry = Levioso_core.Registry
module Emulator = Levioso_ir.Emulator
module Ir = Levioso_ir.Ir

let config = Config.default

type reference = { regs : int array; mem_hash : int; retired : int }

let reference_of (w : Workload.t) =
  let st =
    Emulator.run_program ~mem_words:config.Config.mem_words
      ~init:(fun s -> w.Workload.mem_init s.Emulator.mem)
      w.Workload.program
  in
  { regs = Array.copy st.Emulator.regs; mem_hash = Meter.hash_ints st.Emulator.mem;
    retired = st.Emulator.retired }

let check_against (r : reference) pipe =
  let regs = Pipeline.regs pipe in
  let committed = (Pipeline.stats pipe).Sim_stats.committed in
  let bad_reg =
    List.find_opt
      (fun i -> i <> Ir.zero_reg && regs.(i) <> r.regs.(i))
      (List.init (Array.length r.regs) Fun.id)
  in
  if committed <> r.retired then
    Work.fail (Printf.sprintf "retired %d, emulator %d" committed r.retired)
  else
    match bad_reg with
    | Some i ->
      Work.fail (Printf.sprintf "r%d: pipeline %d, emulator %d" i regs.(i) r.regs.(i))
    | None ->
      if Meter.hash_ints (Pipeline.mem pipe) <> r.mem_hash then
        Work.fail "final memory differs from the emulator's"
      else Work.pass ~sim_instrs:committed ()

(* One cell, spans around each public call. *)
let cell tr (w : Workload.t) policy =
  Tracer.span tr ~attrs:[ ("policy", policy) ] "cell" (fun () ->
      let pipe =
        Tracer.span tr "Pipeline.create" (fun () ->
            Pipeline.create ~mem_init:w.Workload.mem_init config
              ~policy:(Registry.find_exn policy) w.Workload.program)
      in
      let words = Gc.minor_words () in
      Tracer.span tr ~attrs:[ ("policy", policy) ] "Pipeline.run" (fun () ->
          Pipeline.run pipe);
      let run_words = Gc.minor_words () -. words in
      let summary =
        Tracer.span tr "Summary.of_pipeline" (fun () ->
            Summary.of_pipeline ~workload:w.Workload.name ~policy pipe)
      in
      (pipe, run_words, summary))

(* Per-layer accumulators, filled by the checks of traced ops. *)
type acc = {
  cycles : (string * string, int) Hashtbl.t;  (* (kernel, policy) *)
  run_words : (string, float) Hashtbl.t;  (* policy -> words in run *)
  pol_cycles : (string, int) Hashtbl.t;  (* policy -> cycles *)
}

let add tbl k v zero plus =
  Hashtbl.replace tbl k (plus v (Option.value ~default:zero (Hashtbl.find_opt tbl k)))

let policy_layers selfs (acc : acc) =
  let per_cycle p =
    let run_s, _ = Tracer.total ~where:[ ("policy", p) ] selfs "Pipeline.run" in
    let cyc = float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc.pol_cycles p)) in
    let words = Option.value ~default:0. (Hashtbl.find_opt acc.run_words p) in
    (run_s, cyc, words)
  in
  let u_s, u_cyc, u_words = per_cycle "unsafe" in
  let unsafe_ns = u_s /. u_cyc *. 1e9 in
  [
    ("pipeline.unsafe.kcyc_per_s", u_cyc /. u_s /. 1000.);
    ("pipeline.unsafe.words_per_cycle", u_words /. u_cyc);
  ]
  @ List.concat_map
      (fun p ->
        let s, cyc, words = per_cycle p in
        [
          (Printf.sprintf "policy.%s.ns_per_cycle" p, (s /. cyc *. 1e9) -. unsafe_ns);
          (Printf.sprintf "policy.%s.words_per_cycle" p, words /. cyc);
        ])
      (List.filter (( <> ) "unsafe") Registry.names)

(* Geomean over kernels of cycles(p) / cycles(unsafe), as overhead %. *)
let model_layers kernels (acc : acc) =
  let overhead p =
    let ratios =
      List.filter_map
        (fun k ->
          match
            (Hashtbl.find_opt acc.cycles (k, p), Hashtbl.find_opt acc.cycles (k, "unsafe"))
          with
          | Some c, Some u -> Some (float_of_int c /. float_of_int u)
          | _ -> None)
        kernels
    in
    (Meter.geomean ratios -. 1.) *. 100.
  in
  [
    ("model.levioso_overhead_pct", overhead "levioso");
    ("model.delay_overhead_pct", overhead "delay");
    ("model.stt_overhead_pct", overhead "stt");
    ( "model.cycles_total",
      float_of_int (Hashtbl.fold (fun _ c s -> s + c) acc.cycles 0) );
  ]

let setup ?(kernels = Suite.all) ~seed () =
  let refs = List.map (fun w -> (w.Workload.name, reference_of w)) kernels in
  (* warm-up: one untimed cell of each policy *)
  let warm = Suite.find_exn "matmul" in
  List.iter
    (fun p -> ignore (cell Tracer.off warm p : _ * _ * _))
    Registry.names;
  Gc.full_major ();
  let order = Array.of_list kernels in
  Levioso_util.Rng.shuffle (Levioso_util.Rng.create seed) order;
  let policies = Array.of_list Registry.names in
  let npol = Array.length policies in
  let pass = Array.length order * npol in
  let acc =
    { cycles = Hashtbl.create 128; run_words = Hashtbl.create 16; pol_cycles = Hashtbl.create 16 }
  in
  let op i =
    let j = i mod pass in
    let w = order.(j / npol) and policy = policies.(j mod npol) in
    let run tr =
      (* Every cell starts from a collected heap, so the major GC work
         and the peak memory of a cell do not depend on which cells the
         seed put before it.  The collection is timed, as this cell's: it
         finishes the previous cell's garbage. *)
      Gc.full_major ();
      let pipe, run_words, _summary = cell tr w policy in
      fun () ->
        let o = check_against (List.assoc w.Workload.name refs) pipe in
        if Option.is_some tr then begin
          let cyc = (Pipeline.stats pipe).Sim_stats.cycles in
          Hashtbl.replace acc.cycles (w.Workload.name, policy) cyc;
          add acc.pol_cycles policy cyc 0 ( + );
          add acc.run_words policy run_words 0. ( +. )
        end;
        o
    in
    { Work.label = policy; group = i / npol; sim_scope = true; run }
  in
  {
    Work.name = "matrix-detailed";
    (* one pass takes about 35 CPU seconds on a 2-core x86 VM *)
    block = pass;
    blocks = (fun seconds -> max 1 ((seconds + 34) / 35));
    calibrate_every = 2;
    op;
    layers =
      (fun spans ->
        let selfs = Tracer.self_times spans in
        [ ("pipeline.create_ms", Tracer.mean_self selfs "Pipeline.create" *. 1e3);
          ("summary.build_us", Tracer.mean_self selfs "Summary.of_pipeline" *. 1e6) ]
        @ policy_layers selfs acc
        @ model_layers (List.map (fun w -> w.Workload.name) kernels) acc);
    close = ignore;
  }
