module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline
module Depmatrix = Levioso_uarch.Depmatrix

let maker ?(track_data = true) () config program pipe =
  let annotation = Annotation.analyze program in
  (* Row per in-flight instruction: the unresolved branch instances it
     depends on.  The scratch row is the active-branch set; [reconv] holds
     each active branch's reconvergence pc by slot (-1 = none). *)
  let m = Depmatrix.create config in
  let active = Depmatrix.scratch m in
  let reconv = Array.make config.Levioso_uarch.Config.rob_size (-1) in
  let on_decode ~seq =
    let pc = Pipeline.pc_of pipe seq in
    (* Fetch reached this pc: every active instance whose reconvergence pc
       this is deactivates — the instruction itself is already
       reconverged with respect to those branches. *)
    Depmatrix.filter m active (fun col -> reconv.(col) <> pc);
    let row = Depmatrix.slot m seq in
    Depmatrix.clear m row;
    Depmatrix.union_into m ~dst:row ~src:active;
    if track_data then Depmatrix.inherit_producers m pipe ~dst:row ~seq;
    Depmatrix.seal m row;
    match Pipeline.instr_of pipe seq with
    | Ir.Branch _ ->
      reconv.(row) <-
        (match Annotation.hint_for annotation pc with
        | Some (Annotation.Reconverges_at r) -> r
        | Some Annotation.No_reconvergence | None -> -1);
      Depmatrix.add m active ~col:row
    | Ir.Alu _ | Ir.Load _ | Ir.Store _ | Ir.Jump _ | Ir.Flush _
    | Ir.Rdcycle _ | Ir.Halt ->
      ()
  in
  let may_execute ~seq =
    (not (Pipeline.is_transmitter (Pipeline.instr_of pipe seq)))
    || Depmatrix.may_issue m pipe (Depmatrix.slot m seq) ~seq
  in
  {
    Pipeline.always_execute_policy with
    policy_name = (if track_data then "levioso" else "levioso-ctrl");
    on_decode;
    (* The tag broadcast: a resolved instance constrains nothing. *)
    on_resolve =
      (fun ~seq -> Depmatrix.broadcast m ~col:(Depmatrix.slot m seq));
    on_squash = (fun ~boundary:_ -> Depmatrix.retain_in_flight m pipe active);
    may_execute;
    explain =
      (fun ~seq ->
        Depmatrix.explain m pipe (Depmatrix.slot m seq) (fun deps ->
            Levioso_telemetry.Audit.Branch_dep deps));
  }
