(* The repo's benchmark.  One workload per invocation:

     main.exe --workload NAME --seed N --seconds N --trace 0|1

   prints a human summary on stderr and, as the last line of stdout, one
   JSON object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the same ops run
   again with spans on, followed by small runs of the other workloads and
   the layer probes, and the metrics are the per-layer ones. *)

open Runner

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "N measured CPU seconds (whole passes)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds N --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ " (known: " ^ String.concat ", " workloads ^ ")");
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  (try Sys.mkdir "perfbench" 0o755 with Sys_error _ -> ());
  (try Sys.mkdir workdir 0o755 with Sys_error _ -> ());
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
