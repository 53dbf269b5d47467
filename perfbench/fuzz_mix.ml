(* fuzz-mix: each op is one fuzz case.  Case i runs oracle (i mod 5) of
   Oracle.all at Campaign.iter_seed base i, the order Campaign uses.  Many
   tiny programs make this the workload where the Lev compiler, the
   annotation pass, the generators, the emulator as oracle and
   Pipeline.create dominate.  A Fail verdict is a failed op; nothing is
   filtered out. *)

module Oracle = Levioso_fuzz.Oracle
module Campaign = Levioso_fuzz.Campaign
module Gen = Levioso_fuzz.Gen
module Gen_lev = Levioso_fuzz.Gen_lev
module Compiler = Levioso_lang.Compiler
module Annotation = Levioso_core.Annotation
module Registry = Levioso_core.Registry
module Emulator = Levioso_ir.Emulator
module Config = Levioso_uarch.Config

let config = Gen.default_config

(* Instructions arch-diff commits in the detailed core: the case's
   retired count, once under every policy (see Oracle.arch_diff). *)
let arch_diff_instrs seed =
  let st =
    Emulator.run_program ~mem_words:config.Config.mem_words ~fuel:2_000_000
      ~init:(fun s -> Gen.mem_init seed s.Emulator.mem)
      (Gen.random_program seed)
  in
  st.Emulator.retired * List.length Registry.names

(* Calls on the case's input that the traced run times outside the op. *)
let layer_calls tr (o : Oracle.t) seed =
  match o.Oracle.name with
  | "arch-diff" ->
    let p = Tracer.span tr "Gen.random_program" (fun () -> Gen.random_program seed) in
    ignore (Tracer.span tr "Annotation.analyze" (fun () -> Annotation.analyze p) : Annotation.t)
  | "lang-diff" ->
    let src = Gen_lev.random_source seed in
    ignore (Tracer.span tr "Compiler.compile" (fun () -> Compiler.compile src) : _ result)
  | _ -> ()

let case_seed ~seed i = Campaign.iter_seed seed i

let setup ~seed () =
  let oracles = Array.of_list Oracle.all in
  let n = Array.length oracles in
  (* warm-up: five untimed cases of each oracle, the same for every seed
     so set-up is fixed work *)
  for k = 0 to (5 * n) - 1 do
    let o = oracles.(k mod n) in
    ignore (o.Oracle.run ~config ~seed:(Campaign.iter_seed 0 k) : Oracle.outcome)
  done;
  let op i =
    let o = oracles.(i mod n) in
    let case_seed = case_seed ~seed i in
    let run tr =
      let outcome =
        Tracer.span tr ~attrs:[ ("oracle", o.Oracle.name) ] "Oracle.run" (fun () ->
            o.Oracle.run ~config ~seed:case_seed)
      in
      fun () ->
        if Option.is_some tr then layer_calls tr o case_seed;
        match outcome.Oracle.verdict with
        | Oracle.Fail f ->
          Work.fail (Printf.sprintf "%s seed %d: %s" o.Oracle.name case_seed f.Oracle.detail)
        | Oracle.Pass ->
          if o.Oracle.name = "arch-diff" then
            Work.pass ~sim_instrs:(arch_diff_instrs case_seed) ()
          else Work.pass ()
    in
    { Work.label = o.Oracle.name; group = i / n; sim_scope = o.Oracle.name = "arch-diff"; run }
  in
  let layers spans =
    let selfs = Tracer.self_times spans in
    [
      ("lang.compile_us", Tracer.mean_self selfs "Compiler.compile" *. 1e6);
      ("annotation.analyze_us", Tracer.mean_self selfs "Annotation.analyze" *. 1e6);
      ("fuzz.gen_us", Tracer.mean_self selfs "Gen.random_program" *. 1e6);
    ]
    @ List.map
        (fun (o : Oracle.t) ->
          ( Printf.sprintf "fuzz.%s.case_ms" o.Oracle.name,
            Tracer.mean_self ~where:[ ("oracle", o.Oracle.name) ] selfs "Oracle.run" *. 1e3 ))
        Oracle.all
  in
  {
    Work.name = "fuzz-mix";
    (* about 230 cases per CPU second on a 2-core x86 VM *)
    block = n * 45;
    blocks = (fun seconds -> max 1 seconds);
    calibrate_every = 75;
    op;
    layers;
    close = ignore;
  }
