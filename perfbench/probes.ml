(* Layer probes that no op decomposes into: timed calls on the fast tier
   and on checkpoints of a stream-xl state.  Each is repeated and
   reported as its median. *)

module Workload = Levioso_workload.Workload
module Suite = Levioso_workload.Suite
module Config = Levioso_uarch.Config
module Cache = Levioso_uarch.Cache
module Predictor = Levioso_uarch.Predictor
module Sampler = Levioso_uarch.Sampler
module Checkpoint = Levioso_uarch.Checkpoint
module Pipeline = Levioso_uarch.Pipeline
module Registry = Levioso_core.Registry
module Emulator = Levioso_ir.Emulator

let reps = 5

let timed f =
  let c0 = Meter.cpu () in
  let x = f () in
  (x, Meter.cpu () -. c0)

let fresh_emulator config (w : Workload.t) =
  let st = Emulator.create ~mem_words:config.Config.mem_words w.Workload.program in
  w.Workload.mem_init st.Emulator.mem;
  st

let warming config =
  let hierarchy = Cache.Hierarchy.create config in
  let predictor = Predictor.create config in
  (hierarchy, predictor, Sampler.warming_hooks config hierarchy predictor)

(* Emulator.run_steps over the whole of stream-xl, bare and with the
   sampler's warming hooks. *)
let fast_tier =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some m -> m
    | None ->
      let config = Config.default and w = Suite.find_exn "stream-xl" in
      let time hooks =
        let st = fresh_emulator config w in
        let hooks = match hooks with None -> Emulator.no_hooks | Some h -> h () in
        timed (fun () -> Emulator.run_steps ~hooks st max_int)
      in
      let runs hooks = List.init reps (fun _ -> time hooks) in
      let bare = runs None in
      let hooked = runs (Some (fun () -> let _, _, h = warming config in h)) in
      let n = float_of_int (fst (List.hd bare)) in
      let bare_s = Meter.median (List.map snd bare) in
      let hooked_s = Meter.median (List.map snd hooked) in
      let m =
        [
          ("emulator.minstr_per_s", n /. bare_s /. 1e6);
          ("warming.ns_per_instr", (hooked_s -. bare_s) /. n *. 1e9);
        ]
      in
      memo := Some m;
      m

(* Checkpoint.capture of a half-way stream-xl state with warm caches, and
   Checkpoint.to_pipeline resuming a detailed core from it. *)
let checkpoint () =
  let config = Config.default and w = Suite.find_exn "stream-xl" in
  let st = fresh_emulator config w in
  let hierarchy, predictor, hooks = warming config in
  ignore (Emulator.run_steps ~hooks st 500_000 : int);
  let captures =
    List.init reps (fun _ ->
        timed (fun () -> Checkpoint.capture st ~hierarchy ~predictor))
  in
  let ck = fst (List.hd captures) in
  let resumes =
    List.init reps (fun _ ->
        snd
          (timed (fun () ->
               Checkpoint.to_pipeline ck config ~policy:(Registry.find_exn "unsafe")
                 w.Workload.program)))
  in
  [
    ("checkpoint.capture_ms", Meter.median (List.map snd captures) *. 1e3);
    ("checkpoint.resume_ms", Meter.median resumes *. 1e3);
  ]
