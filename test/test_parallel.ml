(* The domain pool: ordering, degeneration to serial, exception
   propagation — and the property the evaluation harness rests on, that
   a parallel (workload x policy) matrix is bit-identical to a serial
   one. *)

module Parallel = Levioso_util.Parallel
module Ir = Levioso_ir.Ir
module Parser = Levioso_ir.Parser
module Config = Levioso_uarch.Config
module Pipeline = Levioso_uarch.Pipeline
module Summary = Levioso_uarch.Summary
module Json = Levioso_telemetry.Json
module Registry = Levioso_core.Registry

let test_map_preserves_order () =
  Parallel.with_pool ~size:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "same as List.map" (List.map (fun x -> x * x) xs)
        (Parallel.map pool (fun x -> x * x) xs))

let test_empty_and_singleton () =
  Parallel.with_pool ~size:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Parallel.map pool Fun.id []);
      Alcotest.(check (list int)) "singleton" [ 7 ] (Parallel.map pool Fun.id [ 7 ]))

let test_size_one_is_serial () =
  Parallel.with_pool ~size:1 (fun pool ->
      Alcotest.(check int) "clamped size" 1 (Parallel.size pool);
      let caller = Domain.self () in
      let ran_in =
        Parallel.map pool (fun _ -> Domain.self ()) (List.init 8 Fun.id)
      in
      List.iter
        (fun d ->
          Alcotest.(check bool) "ran in calling domain" true (d = caller))
        ran_in)

(* A serial pool's future runs nothing until awaited, then runs in the
   awaiting thread: a caller awaiting in order sees each result before
   the next task starts, which is what lets a one-worker daemon stream. *)
let test_size_one_async_deferred () =
  Parallel.with_pool ~size:1 (fun pool ->
      let ran = ref [] in
      let task i () =
        ran := i :: !ran;
        Thread.self () |> Thread.id
      in
      let a = Parallel.async pool (task 1) in
      let b = Parallel.async pool (task 2) in
      Alcotest.(check (list int)) "nothing runs at submission" [] !ran;
      Alcotest.(check bool) "deferred is not done" false (Parallel.peek a);
      Alcotest.(check bool) "deferred has no stamps" true
        (Parallel.times a = None);
      Alcotest.(check int) "ran in the awaiting thread"
        (Thread.id (Thread.self ()))
        (Parallel.await a);
      Alcotest.(check (list int)) "only the awaited task ran" [ 1 ] !ran;
      Alcotest.(check bool) "settled" true (Parallel.times a <> None);
      ignore (Parallel.await b : int);
      ignore (Parallel.await b : int);
      Alcotest.(check (list int)) "each task runs once" [ 2; 1 ] !ran)

let test_size_clamped () =
  Parallel.with_pool ~size:(-3) (fun pool ->
      Alcotest.(check int) "negative clamps to 1" 1 (Parallel.size pool))

let test_exceptions_propagate () =
  Parallel.with_pool ~size:4 (fun pool ->
      Alcotest.check_raises "raises" (Failure "boom-3") (fun () ->
          ignore
            (Parallel.map pool
               (fun x -> if x = 3 then failwith "boom-3" else x)
               (List.init 10 Fun.id)
              : int list));
      (* lowest-indexed failure wins, whatever order workers finish in *)
      Alcotest.check_raises "first by index" (Failure "boom-2") (fun () ->
          ignore
            (Parallel.map pool
               (fun x -> if x >= 2 then failwith (Printf.sprintf "boom-%d" x) else x)
               (List.init 10 Fun.id)
              : int list));
      (* the pool survives a failed map *)
      Alcotest.(check (list int))
        "pool usable after exception" [ 0; 1; 2 ]
        (Parallel.map pool Fun.id [ 0; 1; 2 ]))

let test_map_after_shutdown_raises () =
  let pool = Parallel.create ~size:2 () in
  Parallel.shutdown pool;
  Parallel.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Parallel.map: pool has been shut down") (fun () ->
      ignore (Parallel.map pool Fun.id [ 1 ] : int list))

(* A submitter blocked on a full bounded queue when shutdown begins must
   be woken and rejected — not left to enqueue a task behind the Stop
   markers that no worker will ever run (stranding its await forever and
   hanging the daemon's shutdown join). *)
let test_blocked_submit_rejected_on_shutdown () =
  let pool = Parallel.create ~size:2 ~max_pending:1 () in
  let release = Atomic.make false in
  let started = Atomic.make 0 in
  let gated () =
    Atomic.incr started;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done
  in
  (* occupy both workers, then fill the single queue slot *)
  let _w1 = Parallel.async pool gated in
  let _w2 = Parallel.async pool gated in
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  let filler = Parallel.async pool (fun () -> ()) in
  let rejected = Atomic.make false in
  let submitter =
    Thread.create
      (fun () ->
        match Parallel.async pool (fun () -> ()) with
        | (_ : unit Parallel.future) -> ()
        | exception Invalid_argument _ -> Atomic.set rejected true)
      ()
  in
  Thread.delay 0.05;
  let shutter = Thread.create (fun () -> Parallel.shutdown pool) () in
  Thread.delay 0.05;
  Atomic.set release true;
  Thread.join submitter;
  Thread.join shutter;
  Alcotest.(check bool) "blocked submit rejected" true (Atomic.get rejected);
  (* work enqueued before shutdown still drains *)
  Parallel.await filler

(* --- parallel simulation determinism ------------------------------- *)

let kernel =
  {|
      mov r1, #0
      mov r2, #0
    head:
      bge r1, #40, out
      and r3, r1, #63
      load r4, [r3 + #1024]
      rem r5, r4, #3
      beq r5, #0, skip
      add r2, r2, r4
    skip:
      add r1, r1, #1
      jump head
    out:
      store [r0 + #500], r2
      halt
  |}

let kernel_mem mem =
  for i = 0 to 63 do
    mem.(1024 + i) <- (i * 17) mod 29
  done

let config = { Config.default with Config.mem_words = 65536 }

let summary_string policy =
  let pipe =
    Pipeline.create ~mem_init:kernel_mem config
      ~policy:(Registry.find_exn policy) (Parser.parse_exn kernel)
  in
  Pipeline.run pipe;
  Json.to_string (Summary.of_pipeline ~workload:"kernel" ~policy pipe)

let test_parallel_matrix_bit_identical () =
  let policies =
    [ "unsafe"; "fence"; "delay"; "dom"; "stt"; "levioso"; "levioso-static" ]
  in
  let serial = List.map summary_string policies in
  let parallel =
    Parallel.with_pool ~size:4 (fun pool ->
        Parallel.map pool summary_string policies)
  in
  List.iter2
    (fun s p -> Alcotest.(check string) "summary bit-identical" s p)
    serial parallel

(* The observational timing hook behind the serve daemon's queue-wait /
   execution-time accounting: stamps exist exactly once a future
   settles, are ordered, and show real queue wait on a saturated pool.
   (A size-1 pool defers each task to its first await, so saturation
   needs two real workers held at a gate.) *)
let test_future_times () =
  Parallel.with_pool ~size:2 (fun pool ->
      let release = Atomic.make false in
      let gate () =
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done
      in
      let slow_a = Parallel.async pool gate in
      let slow_b = Parallel.async pool gate in
      let fast = Parallel.async pool (fun () -> ()) in
      Alcotest.(check bool) "no stamps while queued" true
        (Parallel.times fast = None);
      Thread.delay 0.03;
      Atomic.set release true;
      Parallel.await slow_a;
      Parallel.await slow_b;
      Parallel.await fast;
      (match (Parallel.times slow_a, Parallel.times slow_b, Parallel.times fast)
       with
      | Some a1, Some a2, Some b ->
        let ordered (tm : Parallel.times) =
          tm.Parallel.submitted_s <= tm.Parallel.started_s +. 1e-9
          && tm.Parallel.started_s <= tm.Parallel.finished_s +. 1e-9
        in
        Alcotest.(check bool) "stamps ordered" true
          (ordered a1 && ordered a2 && ordered b);
        Alcotest.(check bool) "queued future started after a worker freed" true
          (b.Parallel.started_s
          >= Float.min a1.Parallel.finished_s a2.Parallel.finished_s -. 1e-6);
        Alcotest.(check bool) "queue wait visible on a saturated pool" true
          (b.Parallel.started_s -. b.Parallel.submitted_s >= 0.02)
      | _ -> Alcotest.fail "settled futures must carry stamps");
      let boom = Parallel.async pool (fun () -> failwith "boom") in
      (match Parallel.await boom with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "expected the failure to propagate");
      Alcotest.(check bool) "failed future still stamped" true
        (Parallel.times boom <> None))

let suite =
  ( "parallel",
    [
      Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
      Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
      Alcotest.test_case "size 1 degenerates to serial" `Quick
        test_size_one_is_serial;
      Alcotest.test_case "size 1 async deferred to await" `Quick
        test_size_one_async_deferred;
      Alcotest.test_case "size is clamped" `Quick test_size_clamped;
      Alcotest.test_case "exceptions propagate" `Quick test_exceptions_propagate;
      Alcotest.test_case "map after shutdown raises" `Quick
        test_map_after_shutdown_raises;
      Alcotest.test_case "blocked submit rejected on shutdown" `Quick
        test_blocked_submit_rejected_on_shutdown;
      Alcotest.test_case "future timing stamps" `Quick test_future_times;
      Alcotest.test_case "parallel matrix bit-identical to serial" `Slow
        test_parallel_matrix_bit_identical;
    ] )
