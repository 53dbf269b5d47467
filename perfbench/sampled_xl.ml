(* sampled-xl: each op is one Sampler.run cell on the >1M-instruction
   stream-xl at 5000:2000:20, all nine policies back to back, so a fast
   tier shared across policies would show.  It runs the detailed core as
   many short intervals plus the emulator's fast tier with warming. *)

module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Config = Levioso_uarch.Config
module Sampler = Levioso_uarch.Sampler
module Summary = Levioso_uarch.Summary
module Registry = Levioso_core.Registry
module Emulator = Levioso_ir.Emulator
module Json = Levioso_telemetry.Json

let spec = { Sampler.interval = 5000; warmup = 2000; period = 20 }
let config = Config.default

type reference = { retired : int; cycles : (string * int) list }

(* The committed full-detail cycle counts (see reference/). *)
let reference () =
  let j = Json.of_string_exn Reference_data.stream_xl_full in
  {
    retired = Json.to_int_exn (Json.member_exn "retired" j);
    cycles =
      List.map
        (fun p -> (p, Json.to_int_exn (Json.member_exn p (Json.member_exn "cycles" j))))
        Registry.names;
  }

let cell tr (w : Workload.t) policy =
  Tracer.span tr ~attrs:[ ("policy", policy) ] "sampled-cell" (fun () ->
      let r =
        Tracer.span tr "Sampler.run" (fun () ->
            Sampler.run ~mem_init:w.Workload.mem_init spec config
              ~policy:(Registry.find_exn policy) w.Workload.program)
      in
      let _summary : Json.t =
        Tracer.span tr "Summary.of_sampled" (fun () ->
            Summary.of_sampled ~workload:w.Workload.name ~policy r)
      in
      r)

(* |estimate − full detail| as % of full detail. *)
let err_pct (r : Sampler.result) full =
  Float.abs (float_of_int (r.Sampler.estimated_cycles - full)) /. float_of_int full *. 100.

let check (reference : reference) policy (r : Sampler.result) =
  let full = List.assoc policy reference.cycles in
  if r.Sampler.total_instrs <> reference.retired then
    Work.fail
      (Printf.sprintf "%s: retired %d, emulator %d" policy r.Sampler.total_instrs
         reference.retired)
  else if err_pct r full > r.Sampler.error_pct then
    Work.fail
      (Printf.sprintf "%s: estimate %d is %.2f%% from full detail %d, beyond its %.2f%% bound"
         policy r.Sampler.estimated_cycles (err_pct r full) full r.Sampler.error_pct)
  else Work.pass ~sim_instrs:r.Sampler.detailed_instrs ()

let setup ?reference:(given : reference option) ~seed:_ () =
  let w = Suite.find_exn "stream-xl" in
  let reference = match given with Some r -> r | None -> reference () in
  let emulated =
    Emulator.run_program ~mem_words:config.Config.mem_words ~fuel:100_000_000
      ~init:(fun s -> w.Workload.mem_init s.Emulator.mem)
      w.Workload.program
  in
  (* the committed reference must describe this program *)
  if emulated.Emulator.retired <> reference.retired then
    failwith
      (Printf.sprintf "stream-xl retires %d instructions, the reference says %d"
         emulated.Emulator.retired reference.retired);
  ignore (cell Tracer.off w "unsafe" : Sampler.result);
  let policies = Array.of_list Registry.names in
  let npol = Array.length policies in
  let results = Hashtbl.create 16 in
  let op i =
    let policy = policies.(i mod npol) in
    let run tr =
      let r = cell tr w policy in
      fun () ->
        if Option.is_some tr then Hashtbl.replace results policy r;
        check reference policy r
    in
    { Work.label = policy; group = i / npol; sim_scope = true; run }
  in
  let layers spans =
    let selfs = Tracer.self_times spans in
    let rs = List.filter_map (fun p -> Option.map (fun r -> (p, r)) (Hashtbl.find_opt results p)) Registry.names in
    let sumi f = float_of_int (List.fold_left (fun s (_, r) -> s + f r) 0 rs) in
    let total = sumi (fun r -> r.Sampler.total_instrs) in
    let detailed = sumi (fun r -> r.Sampler.detailed_instrs) in
    let run_s, runs = Tracer.total selfs "Sampler.run" in
    (* [rs] holds each policy's last result; the traced ops are whole
       passes, so every policy ran runs / |rs| times *)
    let passes = float_of_int runs /. float_of_int (List.length rs) in
    (* the fast tier's share of Sampler.run, from the warming probe's
       cost per fast-forwarded instruction *)
    let fast = Probes.fast_tier () in
    let warm_ns = List.assoc "warming.ns_per_instr" fast in
    let emu_ns = 1e3 /. List.assoc "emulator.minstr_per_s" fast in
    let est p = float_of_int (List.assoc p rs).Sampler.estimated_cycles in
    let overhead p = (est p /. est "unsafe" -. 1.) *. 100. in
    [
      ("sampler.kips", total *. passes /. run_s /. 1000.);
      ("sampler.detailed_share", detailed /. total);
      ( "sampler.fast_tier_share",
        (total -. detailed) *. passes *. (warm_ns +. emu_ns) *. 1e-9 /. run_s );
      ("sampler.bound_pct", Meter.mean (List.map (fun (_, r) -> r.Sampler.error_pct) rs));
      ( "sampler.err_pct",
        Meter.mean (List.map (fun (p, r) -> err_pct r (List.assoc p reference.cycles)) rs) );
      ("model.levioso_overhead_pct", overhead "levioso");
      ("model.delay_overhead_pct", overhead "delay");
      ("model.stt_overhead_pct", overhead "stt");
      ("model.cycles_total", Meter.sum (List.map (fun (p, _) -> est p) rs));
    ]
  in
  {
    Work.name = "sampled-xl";
    (* one pass takes about 2 CPU seconds *)
    block = npol;
    blocks = (fun seconds -> max 1 ((seconds + 1) / 2));
    calibrate_every = 2;
    op;
    layers;
    close = ignore;
  }
