(** Deterministic discrete-event simulation of an SPMD program on a
    simulated multiprocessor.

    Each virtual processor owns real distributed blocks (with fringes)
    of every array, executes the flattened IR greedily on its own
    virtual clock, and blocks only on message availability. Every wait
    is a blocking wait, so processors may run ahead of each other and
    the simulation is fully deterministic. Fringe transfers and
    synthesized collective rounds share one message protocol: every
    side of a transfer is compiled once, its payload either a blit plan
    or a round role, and each linked send/receive side pair shares one
    channel: a staging pool, a data ring and a token ring (see DESIGN.md
    section 7). *)

(** A running or finished engine. *)
type t

(** One virtual processor's state. Inspect through {!proc_env} and
    {!proc_stores}. *)
type proc

(** Raised when no processor can make progress (a library/program
    mismatch, e.g. a receive with no matching send). The message names
    the lowest-ranked stuck processor and what it waits for: the
    transfer ([Ir.Transfer.describe]) and the partners whose data or
    tokens are missing, or the pc of the reduction it waits in. *)
exception Deadlock of string

(** [Runtime.Budget.Exceeded] under its older name (the same exception):
    raised when the run's work passes the budget given to {!of_plans} —
    a runaway-loop backstop. The budget is for the whole run, summed over
    processors. *)
exception Instruction_limit of int

(** The spec-independent half of a plan: what depends only on the
    checked program and the mesh — the layout, the shape-only stores,
    the geometry classes (ranks whose stores agree on every array's rank
    and strides), and a table of linked fringe blueprints filled on
    first use for each (member arrays, offset). Plans of several specs
    over one program and mesh (optimization rows, libraries, machines,
    topologies) may share one: [Run.Cache] keeps one per program digest
    and mesh. A geometry is safe to share across domains — its table is
    an unbounded {!Memo} and an entry is published only once linked, and
    never written after. *)
type geometry

(** [geometry ~pr ~pc prog] — a fresh geometry with an empty blueprint
    table. *)
val geometry : pr:int -> pc:int -> Zpl.Prog.t -> geometry

(** Fringe blueprint sets the geometry has built: one per distinct
    (member arrays, offset) planned over it. *)
val blueprint_sets : geometry -> int

(** The immutable, shareable half of an engine: the compiled comm
    schedule bound to a layout, the message sides of every transfer
    (blit plans for fringes, roles for collective rounds), their routes
    under the plan's topology, the reference-check tables, and the
    store-agnostic kernel programs (row plans, per-point where row
    compilation declines, compiled against shape-only stores — see the
    store-binding contract in [Runtime.Kernel]), one per geometry class.
    Engines minted from one [plans] value by {!of_plans} share all of it
    physically ([==]); only per-engine mutable state (stores, one kernel
    workspace, channels, statistics) is rebuilt — {e no kernel
    compilation happens at mint time}. This is the unit [Run.Cache]
    stores, keyed by [Run.Spec]. *)
type plans

(** [plan ~machine ~lib ~pr ~pc flat] compiles every artifact of an
    engine that does not depend on run-time state, for a [pr x pc]
    processor mesh. [topology] defaults to [Ideal], like
    [Run.Spec.default]. The spec-independent half comes from [geometry]
    when given (it must have been built for [flat]'s program, physically,
    and this mesh — else [Invalid_argument]); a fringe transfer's
    blueprints are then taken from its table, or built into it. Without
    [geometry], a fresh one serves this plan alone: one code path either
    way, and the same plan bit for bit.

    Raises [Invalid_argument] if a stencil shift exceeds the smallest
    block extent of the mesh, or if a synthesized collective round was
    compiled for a different mesh, and [Failure] if a receive side has
    no matching send side or the two disagree on the message layout. *)
val plan :
  ?topology:Machine.Topology.t ->
  ?geometry:geometry ->
  machine:Machine.Params.t ->
  lib:Machine.Library.t ->
  pr:int ->
  pc:int ->
  Ir.Flat.t ->
  plans

(** The geometry a plan was built over. *)
val plan_geometry : plans -> geometry

(** The linked message blueprints of one transfer, per processor. *)
type sides

(** [sides plans x] — transfer [x]'s blueprints. A fringe transfer's are
    its geometry's: physically equal ([==]) across plans over one
    geometry with the same member arrays and offset. *)
val sides : plans -> int -> sides

(** [of_plans plans] readies one virtual processor per mesh point:
    fresh stores (minted from the plan's shape-only stores), scalar
    slots, one channel per message side pair, and statistics around the
    shared compiled artifacts, plus {e one} kernel workspace for the
    whole engine, sized by the join of its geometry classes' needs: the
    drain runs one kernel at a time on one domain, and kernels keep
    nothing in the workspace between executions (the workspace contract
    in [Runtime.Kernel]). The per-rank kernel programs and the scalar
    code in [plans] (compiled by [Runtime.Values] at {!plan} time) are
    bound to the fresh stores and slots through a [Runtime.Kernel.env] —
    binding, not recompilation, so a cache hit mints a ready-to-run
    engine. [limit] is the run's work budget (default
    [Runtime.Budget.default]): instructions completed plus cells computed
    or reduced, summed over all processors. Stores whose cells (fringes
    included, over all ranks) exceed it are refused with [Failure]
    before any is allocated, naming the largest array. It does not
    affect the compiled artifacts, which is why it lives here and not in
    the cache key. *)
val of_plans : ?limit:int -> plans -> t

(** The shared compiled half this engine was built from. Two engines
    answer with physically equal ([==]) values iff they share plans —
    the cache-hit property [Run.Cache]'s tests assert. *)
val shared_plans : t -> plans

(** Number of physically distinct kernel programs in a plan set: one
    per geometry class (ranks agreeing on every array's rank and
    strides). *)
val kernel_classes : plans -> int

(** Heap words of the engine's one kernel workspace
    ([Runtime.Kernel.workspace_words]): it does not grow with the rank
    count. *)
val workspace_words : t -> int

type result = {
  time : float;  (** makespan over processors *)
  stats : Stats.t;
  engine : t;  (** the engine itself, for {!gather}/{!final_env} *)
}

(** Run to completion (every processor halted). Raises {!Deadlock}, or
    [Runtime.Budget.Exceeded] once the run's work passes its budget. *)
val run : t -> result

(** Gather the distributed blocks of one array into a single global
    store (fringe cells ignored) — used to verify against the
    sequential oracle. *)
val gather : t -> int -> Runtime.Store.t

(** Every scalar after the run, by id, read at its declared type
    (replicated; proc 0's copy). *)
val final_env : t -> Runtime.Values.value array

(** The virtual processors, indexed by rank. *)
val procs : t -> proc array

(** A processor's scalars, as {!final_env} reads them. *)
val proc_env : t -> proc -> Runtime.Values.value array

(** A processor's local array blocks, indexed by array id. *)
val proc_stores : proc -> Runtime.Store.t array

(** The network topology this engine models (default [Ideal]). *)
val topology : t -> Machine.Topology.t

(** Per-link busy-until times after a run (a copy): index by
    [Machine.Topology] link ids. Empty under [Ideal]. Exposed for tests
    that assert occupancy stays finite and phantom boundary links are
    never claimed. *)
val link_occupancy : t -> float array

(** After a run: (staging buffers freshly allocated by the send-side
    pools of fringe transfers and collective rounds, acquires served
    from the freelists). The split is a runtime
    diagnostic — it depends on how far senders ran ahead — and is not
    part of the deterministic {!Stats.t}. *)
val pool_counts : t -> int * int

(** Completed executions per flat op index after a run (identical across
    processors — control flow is replicated); communication calls count
    on completion, so a comm op's count is its activation count.
    [Ir.Flat.src_of_op] joins the counters back to structured positions. *)
val op_counts : t -> int array
