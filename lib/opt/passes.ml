(** The pass pipeline: splice decided branches out of the typed program,
    lower to the baseline (message-vectorized) block form, apply the
    selected optimizations in the paper's order (rr, then cc, then pl),
    validate invariants, and emit the final IRONMAN IR. *)

(** Run one pass when enabled, then (cheaply) re-validate the block
    invariants — unconditionally, so a violation is pinned on the pass
    that planted it rather than surfacing blocks later. *)
let pass name enabled f (code : Ir.Block.code) : Ir.Block.code =
  if not enabled then code
  else begin
    let code = f code in
    Ir.Block.check_invariants ~pass:name code;
    code
  end

let optimize (config : Config.t) (code : Ir.Block.code) : Ir.Block.code =
  Ir.Block.check_invariants ~pass:"lower" code;
  code
  |> pass "rr" config.Config.rr Redundant.run
  |> pass "cc" config.Config.cc (Combine.run config.Config.heuristic)
  |> pass "pl" config.Config.pl Pipeline.run

(** Compile a typed program under [config] to the final IR. Dead-branch
    elimination runs first, on the typed program: every [If] the
    {!Analysis.Absint.live_body} walk decides is replaced by its live
    arm before lowering, so that arm joins its neighbours in one basic
    block and rr/cc/pl see straight code. [check]
    additionally runs the schedcheck verifier on the emitted program's
    flattened form.
    [machine]/[lib]/[mesh]/[topology] only matter when
    [config.collective] is not [Opaque]: collective synthesis bakes the
    mesh size into its round structure and searches the machine's cost
    model — under a non-ideal topology the search also weighs route
    lengths and link congestion — so the compile target must match the
    simulation target (the engine rejects a mesh mismatch). *)
let compile ?(check = false) ?(machine = Machine.T3d.machine)
    ?(lib = Machine.T3d.pvm) ?(mesh = (4, 4))
    ?(topology = Machine.Topology.Ideal) (config : Config.t)
    (p : Zpl.Prog.t) : Ir.Instr.program =
  let live = { p with Zpl.Prog.body = Analysis.Absint.live_body p } in
  let ir = Ir.Instr.of_code p (optimize config (Lower.lower live)) in
  let pr, pc = mesh in
  let ir =
    Collective.expand ~topology ~mesh ~collective:config.Config.collective
      ~machine ~lib ~nprocs:(pr * pc) ir
  in
  if check then Analysis.Schedcheck.check_exn ir;
  ir
