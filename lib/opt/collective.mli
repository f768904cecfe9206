(** Collective synthesis: compile full reductions into explicit,
    cost-searched DR/SR/DN/SV round schedules (see the implementation
    header for the model and the search landscape, and {!Ir.Coll} for
    the four algorithms and their reassociation legality). *)

(** Fixed per-message cost (seconds): the four call overheads, wire and
    messaging-stack latency, plus a rendezvous round trip when the
    library's SR blocks on a token. *)
val alpha : machine:Machine.Params.t -> lib:Machine.Library.t -> float

(** Modeled cost of one whole collective of the algorithm on [nprocs]
    ranks, 8-byte scalar payloads: the sum of its canonical rounds'
    messages through [alpha + bytes * beta]. Under the default [Ideal]
    topology this is bit-identical to the pre-topology model; under
    [Mesh]/[Torus] ([mesh] is the rank grid, default [1 x nprocs]) each
    round also pays its geometry — extra store-and-forward hops along
    the longest active route and serialization on the most-loaded
    directed link under dimension-order routing — so the argmin shifts
    with the topology. *)
val cost :
  ?topology:Machine.Topology.t ->
  ?mesh:int * int ->
  machine:Machine.Params.t ->
  lib:Machine.Library.t ->
  nprocs:int ->
  Ir.Coll.alg ->
  float

(** [choose ~machine ~lib nprocs] is the cheapest algorithm under
    {!cost}; ties keep the earlier entry of {!Ir.Coll.all_algs}, so the
    pick is deterministic. *)
val choose :
  ?topology:Machine.Topology.t ->
  ?mesh:int * int ->
  machine:Machine.Params.t -> lib:Machine.Library.t -> int ->
  Ir.Coll.alg

(** Expand every [ReduceK] into [CollPart]; canonical rounds; [CollFin]
    under the configured mode ([Opaque] is the identity). Round
    transfers are appended to the transfer table, tagged with their
    {!Ir.Coll.desc}. Each reduction site gets its own collective slot,
    reused across loop iterations. *)
val expand :
  ?topology:Machine.Topology.t ->
  ?mesh:int * int ->
  collective:Config.collective ->
  machine:Machine.Params.t ->
  lib:Machine.Library.t ->
  nprocs:int ->
  Ir.Instr.program ->
  Ir.Instr.program
