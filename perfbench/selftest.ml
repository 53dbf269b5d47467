(* The benchmark's own tests, on small slices of each workload:

   - two runs of one seed give identical model.* and run_cache.hit_ratio,
     and identical alloc_kwords_per_op on matrix-detailed, sampled-xl
     and fuzz-mix;
   - a different seed changes the serve-mixed batch sequence and the
     fuzz-mix cases;
   - a deliberately wrong reference makes the output check fail;
   - only lang-diff's known divergences leave [correct] true.

   Run with: dune build @perfbench/selftest *)

open Runner

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let small_matrix ~seed () =
  Matrix_detailed.setup
    ~kernels:(List.map Levioso_workload.Suite.find_exn [ "matmul"; "treewalk" ])
    ~seed ()

let slices =
  [
    ("matrix-detailed", 18, small_matrix);
    ("sampled-xl", 9, fun ~seed () -> Sampled_xl.setup ~seed ());
    ("serve-mixed", Serve_mixed.round_len, fun ~seed () -> Serve_mixed.setup ~workdir ~seed ~rounds:2 ());
    ("fuzz-mix", 100, fun ~seed () -> Fuzz_mix.setup ~seed ());
  ]

(* One run of a slice: the untraced ops' allocation per op, then the
   traced repeat's per-layer figures. *)
let run_slice (name, count, make) ~seed =
  let t : Work.t = make ~seed () in
  let untraced = measure t Tracer.off ~first:0 ~count in
  let tr = Tracer.create name in
  let traced = measure t tr ~first:count ~count in
  let layers = t.Work.layers (Tracer.drain tr) in
  t.Work.close ();
  let alloc = List.assoc "alloc_kwords_per_op" (end_to_end_metrics ~setup_s:0. untraced) in
  let failed = List.filter (fun r -> not r.outcome.Work.ok) (untraced @ traced) in
  (alloc, layers, List.map (fun r -> r.outcome.Work.detail) failed)

let exact_layers layers =
  List.filter
    (fun (k, _) -> String.starts_with ~prefix:"model." k || k = "run_cache.hit_ratio")
    layers

let determinism () =
  List.iter
    (fun ((name, _, _) as slice) ->
      let a1, l1, f1 = run_slice slice ~seed:7 in
      let a2, l2, f2 = run_slice slice ~seed:7 in
      (* fuzz cases may fail (the verdict is the output); they must fail
         the same way twice *)
      if name = "fuzz-mix" then begin
        expect (Printf.sprintf "%s: the same %d case(s) fail in both runs" name (List.length f1))
          (f1 = f2);
        expect (name ^ ": only lang-diff cases fail")
          (List.for_all (String.starts_with ~prefix:"lang-diff ") f1)
      end
      else expect (name ^ ": every op passes its check") (f1 = [] && f2 = []);
      let e1 = exact_layers l1 and e2 = exact_layers l2 in
      if e1 <> [] then
        expect
          (Printf.sprintf "%s: model.* and hit ratio repeat (%d figures)" name (List.length e1))
          (e1 = e2);
      if name <> "serve-mixed" then
        expect (Printf.sprintf "%s: alloc_kwords_per_op repeats (%.6f, %.6f)" name a1 a2) (a1 = a2))
    slices

let seed_sensitivity () =
  let keys seed =
    Array.map (fun (b : Serve_mixed.batch) -> (b.Serve_mixed.key, b.Serve_mixed.fresh))
      (Serve_mixed.sequence ~seed ~rounds:4)
  in
  expect "serve-mixed: another seed, another batch sequence" (keys 1 <> keys 2);
  expect "serve-mixed: one seed, one batch sequence" (keys 3 = keys 3);
  let inputs seed =
    List.init 10 (fun i ->
        let o = List.nth Levioso_fuzz.Oracle.all (i mod List.length Levioso_fuzz.Oracle.all) in
        Levioso_fuzz.Oracle.input_of o ~seed:(Fuzz_mix.case_seed ~seed i))
  in
  expect "fuzz-mix: another seed, other cases" (inputs 1 <> inputs 2);
  expect "fuzz-mix: one seed, the same cases" (inputs 3 = inputs 3)

let wrong_references () =
  (* sampled-xl against full-detail cycles 10% off *)
  let r = Sampled_xl.reference () in
  let off =
    { r with Sampled_xl.cycles = List.map (fun (p, c) -> (p, c + (c / 10))) r.Sampled_xl.cycles }
  in
  let t = Sampled_xl.setup ~reference:off ~seed:1 () in
  let rs = measure t Tracer.off ~first:0 ~count:2 in
  expect "sampled-xl: a wrong full-detail reference fails the check"
    (List.for_all (fun r -> not r.outcome.Work.ok) rs);
  (* matrix-detailed against an emulator result one retirement short *)
  let w = Levioso_workload.Suite.find_exn "matmul" in
  let good = Matrix_detailed.reference_of w in
  let pipe, _, _ = Matrix_detailed.cell Tracer.off w "levioso" in
  expect "matrix-detailed: the true reference passes"
    (Matrix_detailed.check_against good pipe).Work.ok;
  expect "matrix-detailed: a wrong retired count fails"
    (not (Matrix_detailed.check_against { good with retired = good.retired - 1 } pipe).Work.ok);
  expect "matrix-detailed: a wrong memory image fails"
    (not (Matrix_detailed.check_against { good with mem_hash = good.mem_hash + 1 } pipe).Work.ok)

(* Only lang-diff's known divergences leave [correct] true. *)
let correct_rule () =
  let failed_op label detail =
    { op = { Work.label; group = 0; sim_scope = false; run = (fun _ () -> Work.pass ()) };
      block = 0; cpu_s = 0.; words = 0.; minor_gcs = 0; major_gcs = 0;
      outcome = Work.fail detail }
  in
  let lang = failed_op "lang-diff" "lang-diff seed 1: outputs differ" in
  expect "fuzz-mix: a lang-diff Fail leaves correct true" (correct ~workload:"fuzz-mix" [ lang ]);
  expect "fuzz-mix: an arch-diff Fail makes correct false"
    (not (correct ~workload:"fuzz-mix" [ lang; failed_op "arch-diff" "arch-diff seed 2: r3" ]));
  expect "fuzz-mix: a lang-diff case that raised makes correct false"
    (not (correct ~workload:"fuzz-mix" [ failed_op "lang-diff" "op raised Not_found" ]));
  expect "matrix-detailed: a failed check makes correct false"
    (not (correct ~workload:"matrix-detailed" [ failed_op "levioso" "retired 1, emulator 2" ]))

let () =
  (try Sys.mkdir "perfbench" 0o755 with Sys_error _ -> ());
  (try Sys.mkdir workdir 0o755 with Sys_error _ -> ());
  determinism ();
  seed_sensitivity ();
  wrong_references ();
  correct_rule ();
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end
