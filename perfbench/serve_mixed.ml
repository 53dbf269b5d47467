(* serve-mixed: each op is one batch of nine cells (one workload × the
   policies) that a single client connection submits, in a closed loop,
   to a Server.run daemon started in this process on a thread.  The
   daemon has a one-worker pool and a fresh shard store.  The seeded
   sequence is mostly replays of keys already served (store reads) mixed
   with fresh keys (store writes): cheap workloads at sweep-axis config
   variants, so the protocol, JSON and the store keep a visible share of
   the CPU. *)

module Config = Levioso_uarch.Config
module Run_cache = Levioso_uarch.Run_cache
module Registry = Levioso_core.Registry
module Server = Levioso_serve.Server
module Client = Levioso_serve.Client
module Protocol = Levioso_serve.Protocol
module Json = Levioso_telemetry.Json
module Rng = Levioso_util.Rng

let cheap = [| "spectre-v1"; "lev-primes"; "pchase"; "treewalk" |]

(* Fresh keys after the first round: dependency-set budget × predictor,
   two sweep axes of fig5-7, minus the default, in one fixed shuffled
   order.  The ROB size, the third axis, stays at its default: it sets
   how much a cell costs (192 entries cost twice 64), so varying it would
   spread the fresh batches' costs thinly and leave op_tail_ms, an order
   statistic, at the mercy of host noise.  A run of r rounds uses the
   first r - 1 variants, so every run of that length serves the same keys
   and only their order and the replays depend on the seed. *)
let variants =
  List.concat_map
    (fun budget ->
      List.filter_map
        (fun pred ->
          let c = { Config.default with Config.depset_budget = budget; predictor = pred } in
          if c = Config.default then None else Some c)
        [ Config.Gshare; Config.Bimodal ])
    [ 1; 2; 4; 8; 16; 32 ]
  |> Array.of_list
  |> fun a ->
  Rng.shuffle (Rng.create 0) a;
  a

(* Batches per round: each cheap workload once at the round's config
   (fresh), each followed by two replays of keys served before. *)
let round_len = 3 * Array.length cheap

type batch = { key : Config.t * string; fresh : bool }

(* The seeded sequence: round 0 serves the cheap workloads at the
   default config; rounds 1 .. rounds - 1 the first rounds - 1 variants,
   in the seed's order. *)
let sequence ~seed ~rounds =
  if rounds > Array.length variants + 1 then invalid_arg "serve-mixed: too many rounds";
  let rng = Rng.create seed in
  let order = Array.sub variants 0 (rounds - 1) in
  Rng.shuffle rng order;
  let served = ref [||] in
  List.concat
    (List.init rounds (fun r ->
         let config = if r = 0 then Config.default else order.(r - 1) in
         let ws = Array.copy cheap in
         Rng.shuffle rng ws;
         List.concat_map
           (fun w ->
             served := Array.append !served [| (config, w) |];
             let replay () = { key = Rng.pick rng !served; fresh = false } in
             let first = { key = (config, w); fresh = true } in
             let r1 = replay () in
             let r2 = replay () in
             [ first; r1; r2 ])
           (Array.to_list ws)))
  |> Array.of_list

let cells (config, workload) =
  List.map
    (fun policy -> { Protocol.config; workload; policy; audit = false; sample = None })
    Registry.names

type daemon = {
  dir : string;
  thread : Thread.t;
  client : Client.t;
  cache : Run_cache.t;  (* the benchmark's own handle on the daemon's store *)
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let counter = ref 0

let start ~workdir =
  incr counter;
  let dir = Filename.concat workdir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter) in
  rm_rf dir;
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let store = Filename.concat dir "store" in
  let cache = Run_cache.create ~dir:store () in
  let ready = ref false and mu = Mutex.create () and cond = Condition.create () in
  let thread =
    Thread.create
      (fun () ->
        Server.run
          ~on_ready:(fun () ->
            Mutex.protect mu (fun () ->
                ready := true;
                Condition.broadcast cond))
          {
            Server.socket_path = socket;
            pool_size = 1;
            queue_max = None;
            cache = Some cache;
            monitor = None;
            log = None;
            spans = None;
            access_log = None;
            history = None;
          })
      ()
  in
  Mutex.protect mu (fun () -> while not !ready do Condition.wait cond mu done);
  let client = Client.connect socket in
  { dir; thread; client; cache }

let stop d =
  Client.shutdown d.client;
  Client.close d.client;
  Thread.join d.thread;
  rm_rf d.dir

let committed summary =
  match Json.member "stats" summary with
  | Some s -> Json.to_int_exn (Json.member_exn "committed" s)
  | None -> 0

let submit tr d key =
  let timings = ref None in
  let results, stats =
    Tracer.span tr "Client.submit" (fun () ->
        Client.submit ~timings:(fun t -> timings := Some t) d.client (cells key))
  in
  (results, stats, Option.get !timings)

(* Per-layer accumulators, filled by the checks of traced ops. *)
type acc = {
  mutable ack : float list;
  mutable first : float list;
  mutable wire_per_cell : float list;
  mutable hit_cell : float list;
  mutable miss_cell : float list;
  mutable cached : int;
  mutable simulated : int;
  default_cycles : (string * string, int) Hashtbl.t;
}

(* Rounds a run of [seconds] measures: one takes about 2 CPU seconds.
   At most 12, one per config. *)
let rounds_for seconds = min (Array.length variants + 1) (max 1 ((seconds + 1) / 2))

let setup ~workdir ~seed ~rounds () =
  let d = start ~workdir in
  (* warm-up: one fresh batch and its replay, at a config no run uses *)
  let warm = ({ Config.default with Config.mshrs = 8 }, "spectre-v1") in
  ignore (submit Tracer.off d warm : _ * _ * _);
  ignore (submit Tracer.off d warm : _ * _ * _);
  let seq = sequence ~seed ~rounds in
  let first_bytes = Hashtbl.create 256 in
  let acc =
    { ack = []; first = []; wire_per_cell = []; hit_cell = []; miss_cell = []; cached = 0;
      simulated = 0; default_cycles = Hashtbl.create 64 }
  in
  let check tr (b : batch) (results : Client.result_cell array) (stats : Protocol.done_stats)
      (t : Client.timings) =
    let want = if b.fresh then "sim" else "cache" in
    let config, workload = b.key in
    let problems = ref [] in
    let sim = ref 0 in
    Array.iteri
      (fun i (r : Client.result_cell) ->
        let policy = List.nth Registry.names i in
        let id = Printf.sprintf "%s/%s" workload policy in
        match r.Client.error with
        | Some e -> problems := Printf.sprintf "%s: error %s" id e :: !problems
        | None ->
          if r.Client.source <> want then
            problems := Printf.sprintf "%s: source %s, expected %s" id r.Client.source want :: !problems;
          let bytes = Tracer.span tr "Json.to_string" (fun () -> Json.to_string r.Client.summary) in
          if Option.is_some tr then
            ignore (Tracer.span tr "Json.of_string" (fun () -> Json.of_string bytes) : _ result);
          (match Hashtbl.find_opt first_bytes (config, workload, policy) with
          | None -> Hashtbl.replace first_bytes (config, workload, policy) bytes
          | Some b0 ->
            if b0 <> bytes then problems := Printf.sprintf "%s: replay differs" id :: !problems);
          if r.Client.source = "sim" then sim := !sim + committed r.Client.summary;
          if config = Config.default then
            Hashtbl.replace acc.default_cycles (workload, policy)
              (Json.to_int_exn (Json.member_exn "cycles" (Json.member_exn "stats" r.Client.summary))))
      results;
    if Option.is_some tr then begin
      let n = float_of_int (Array.length results) in
      acc.ack <- t.Client.ack_s :: acc.ack;
      Option.iter (fun f -> acc.first <- f :: acc.first) t.Client.first_result_s;
      let daemon = Array.fold_left (fun s (r : Client.result_cell) -> s +. r.Client.wall_s) 0. results in
      acc.wire_per_cell <- ((t.Client.total_s -. daemon) /. n) :: acc.wire_per_cell;
      Array.iter
        (fun (r : Client.result_cell) ->
          if r.Client.source = "cache" then acc.hit_cell <- r.Client.wall_s :: acc.hit_cell
          else acc.miss_cell <- r.Client.wall_s :: acc.miss_cell)
        results;
      acc.cached <- acc.cached + stats.Protocol.cached;
      acc.simulated <- acc.simulated + stats.Protocol.simulated;
      (* the store itself, through the benchmark's own handle *)
      let policy = List.hd Registry.names in
      ignore (Tracer.span tr "Run_cache.find.hit" (fun () ->
          Run_cache.find d.cache ~config ~workload ~policy) : Json.t option);
      ignore (Tracer.span tr "Run_cache.find.miss" (fun () ->
          Run_cache.find d.cache ~config ~workload:"perfbench-absent" ~policy) : Json.t option);
      Tracer.span tr "Run_cache.store" (fun () ->
          Run_cache.store d.cache ~config ~workload:"perfbench-probe" ~policy
            results.(0).Client.summary)
    end;
    if stats.Protocol.failed <> 0 then problems := "done frame counts failed cells" :: !problems;
    match !problems with
    | [] ->
      Work.pass ~sim_instrs:!sim
        ?share:(Option.map (fun f -> f /. t.Client.total_s) t.Client.first_result_s)
        ()
    | ps -> Work.fail (String.concat "; " (List.rev ps))
  in
  let op i =
    let b = seq.(i) in
    let run tr =
      let results, stats, t =
        Tracer.span tr ~attrs:[ ("kind", if b.fresh then "fresh" else "replay") ] "batch"
          (fun () -> submit tr d b.key)
      in
      fun () -> check tr b results stats t
    in
    { Work.label = (if b.fresh then "fresh" else "replay"); group = i; sim_scope = true; run }
  in
  let layers spans =
    let selfs = Tracer.self_times spans in
    let us name = Tracer.mean_self selfs name *. 1e6 in
    let overhead p =
      let ratios =
        Array.to_list cheap
        |> List.filter_map (fun w ->
               match
                 ( Hashtbl.find_opt acc.default_cycles (w, p),
                   Hashtbl.find_opt acc.default_cycles (w, "unsafe") )
               with
               | Some c, Some u -> Some (float_of_int c /. float_of_int u)
               | _ -> None)
      in
      (Meter.geomean ratios -. 1.) *. 100.
    in
    [
      ("serve.ack_ms", Meter.median acc.ack *. 1e3);
      ("serve.first_result_ms", Meter.median acc.first *. 1e3);
      ("serve.wire_us_per_cell", Meter.mean acc.wire_per_cell *. 1e6);
      ("serve.cell_hit_ms", Meter.mean acc.hit_cell *. 1e3);
      ("serve.cell_miss_ms", Meter.mean acc.miss_cell *. 1e3);
      ( "run_cache.hit_ratio",
        float_of_int acc.cached /. float_of_int (max 1 (acc.cached + acc.simulated)) );
      ("run_cache.find_hit_us", us "Run_cache.find.hit");
      ("run_cache.find_miss_us", us "Run_cache.find.miss");
      ("run_cache.store_us", us "Run_cache.store");
      ("json.encode_us", us "Json.to_string");
      ("json.decode_us", us "Json.of_string");
      ("model.levioso_overhead_pct", overhead "levioso");
      ("model.delay_overhead_pct", overhead "delay");
      ("model.stt_overhead_pct", overhead "stt");
      ( "model.cycles_total",
        float_of_int (Hashtbl.fold (fun _ c s -> s + c) acc.default_cycles 0) );
    ]
  in
  {
    Work.name = "serve-mixed";
    block = round_len;
    blocks = (fun _ -> rounds);
    (* a round, about 2 CPU s, is 4 fresh batches and 8 replays *)
    calibrate_every = 3;
    op;
    layers;
    close = (fun () -> stop d);
  }
