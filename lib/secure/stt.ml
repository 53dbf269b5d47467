module Ir = Levioso_ir.Ir
module Pipeline = Levioso_uarch.Pipeline
module Depmatrix = Levioso_uarch.Depmatrix

let maker config _program pipe =
  (* Row per in-flight instruction: the unbound roots its value derives
     from.  Every seq below [frontier] is bound, its column cleared. *)
  let m = Depmatrix.create config in
  let frontier = ref 0 in
  (* Taint feeding an instruction's operands (excluding its own root). *)
  let operand_taint seq =
    let r = Depmatrix.scratch m in
    Depmatrix.clear m r;
    Depmatrix.inherit_producers m pipe ~dst:r ~seq;
    Depmatrix.seal m r;
    r
  in
  let on_decode ~seq =
    let row = Depmatrix.slot m seq in
    Depmatrix.clear m row;
    Depmatrix.inherit_producers m pipe ~dst:row ~seq;
    (match Pipeline.instr_of pipe seq with
    | Ir.Load _ when Pipeline.exists_older_unresolved_branch pipe ~seq ->
      Depmatrix.add m row ~col:row
    | Ir.Load _ | Ir.Alu _ | Ir.Store _ | Ir.Branch _ | Ir.Jump _ | Ir.Flush _
    | Ir.Rdcycle _ | Ir.Halt ->
      ());
    Depmatrix.seal m row
  in
  let on_resolve ~seq:_ =
    let next = Pipeline.next_seq pipe in
    (* a committed seq's slot may already hold a younger, unbound root *)
    frontier := max !frontier (Pipeline.oldest_seq pipe);
    while
      !frontier < next
      && not (Pipeline.exists_older_unresolved_branch pipe ~seq:!frontier)
    do
      (* only a root still in its own row was ever a column *)
      let col = Depmatrix.slot m !frontier in
      if Depmatrix.mem m col ~col then Depmatrix.broadcast m ~col;
      incr frontier
    done
  in
  (* STT gates two kinds of instructions on tainted operands: explicit
     transmitters (loads/flushes — the cache channel) and branches (the
     implicit channel: resolving a branch on speculative data changes the
     squash pattern, which is observable).  Everything else propagates
     taint freely. *)
  let gated instr = Pipeline.is_transmitter instr || Ir.is_branch instr in
  let may_execute ~seq =
    (not (gated (Pipeline.instr_of pipe seq)))
    || Depmatrix.may_issue m pipe (operand_taint seq) ~seq
  in
  {
    Pipeline.always_execute_policy with
    policy_name = "stt";
    on_decode;
    on_resolve;
    (* squashed seqs are handed out again *)
    on_squash = (fun ~boundary -> frontier := min !frontier (boundary + 1));
    may_execute;
    explain =
      (fun ~seq ->
        Depmatrix.explain m pipe (operand_taint seq) (fun roots ->
            Levioso_telemetry.Audit.Taint roots));
  }
