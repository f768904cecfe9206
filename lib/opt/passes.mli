(** The optimizer's pass pipeline: splice decided branches out of the typed
    program, lower to the baseline (message-vectorized) block form, apply
    the selected optimizations in the paper's order (rr, then cc, then
    pl), validate invariants after every pass, and emit the final
    IRONMAN IR. *)

(** Apply the selected passes in place. {!Ir.Block.check_invariants}
    runs unconditionally on the input and after each enabled pass; a
    violation fails with the responsible pass named in the message. *)
val optimize : Config.t -> Ir.Block.code -> Ir.Block.code

(** Full pipeline: typed program to final IRONMAN IR. Dead-branch
    elimination comes first: {!Analysis.Absint.live_body} replaces every
    [If] it decides by its live arm, so lowering puts that arm in one
    basic block with its neighbours. With [~check:true]
    the emitted program is additionally verified by
    {!Analysis.Schedcheck.check_exn} — an independent dataflow pass over
    the flattened form the engine executes, with [ir#N] positions in
    this program ([Failure] carries one diagnostic per line). [machine]/[lib]/[mesh]/[topology] (defaults: T3D, PVM, 4x4,
    ideal) are the collective-synthesis targets — the cost model
    searched (hop- and congestion-aware under mesh/torus) and the mesh
    size baked into the synthesized round structure; irrelevant under
    [collective = Opaque]. *)
val compile :
  ?check:bool ->
  ?machine:Machine.Params.t ->
  ?lib:Machine.Library.t ->
  ?mesh:int * int ->
  ?topology:Machine.Topology.t ->
  Config.t ->
  Zpl.Prog.t ->
  Ir.Instr.program

