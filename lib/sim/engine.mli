(** Deterministic discrete-event simulation of an SPMD program on a
    simulated multiprocessor.

    Each virtual processor owns real distributed blocks (with fringes)
    of every array, executes the flattened IR greedily on its own
    virtual clock, and blocks only on message availability. Every wait
    is a blocking wait, so processors may run ahead of each other and
    the simulation is fully deterministic; the same order-independence
    lets [domains > 1] execute the processors' local instructions in
    parallel on host domains with bit-identical results (see DESIGN.md
    section 5). *)

(** A running or finished engine. *)
type t

(** One virtual processor's state. Inspect through {!proc_env} and
    {!proc_stores}. *)
type proc

(** Raised when no processor can make progress (a library/program
    mismatch, e.g. a receive with no matching send). *)
exception Deadlock of string

(** Raised when some single processor exceeds the instruction budget
    given to {!of_plans} — a runaway-loop backstop. The limit is per
    processor, not global, so the parallel drain can enforce it without
    synchronization. *)
exception Instruction_limit of int

(** The immutable, shareable half of an engine: the compiled comm
    schedule bound to a layout, the wire blit plans, the collective role
    tables, the fused-group partition, the reference-check tables, and
    the store-agnostic kernel programs (row/fused/CSE plans compiled
    against shape-only stores — see the store-binding contract in
    [Runtime.Kernel]), one per geometry class: ranks whose stores agree
    on every array's rank and strides share one program. Engines minted
    from one [plans] value by {!of_plans} share all of it physically
    ([==]); only per-engine
    mutable state (stores, kernel workspaces, mailboxes, staging pools,
    statistics) is rebuilt — {e no kernel compilation happens at mint
    time}. This is the unit [Run.Cache] stores, keyed by [Run.Spec]. *)
type plans

(** [plan ~machine ~lib ~pr ~pc flat] compiles every artifact of an
    engine that does not depend on run-time state, for a [pr x pc]
    processor mesh. The knobs mirror the fields of [Run.Spec.t], where
    each is documented; defaults are the spec's defaults ([row_path],
    [fuse], [cse], [wire] all true).

    Raises [Invalid_argument] if a stencil shift exceeds the smallest
    block extent of the mesh, or if a synthesized collective round was
    compiled for a different mesh. *)
val plan :
  ?row_path:bool ->
  ?fuse:bool ->
  ?cse:bool ->
  ?wire:bool ->
  ?topology:Machine.Topology.t ->
  machine:Machine.Params.t ->
  lib:Machine.Library.t ->
  pr:int ->
  pc:int ->
  Ir.Flat.t ->
  plans

(** [of_plans plans] readies one virtual processor per mesh point:
    fresh stores, kernel workspaces, mailboxes, staging pools and
    statistics around the shared compiled artifacts. The per-rank
    kernel programs in [plans] are bound to the fresh stores through a
    [Runtime.Kernel.env] — store binding, not recompilation, so a
    cache hit mints a ready-to-run engine. [limit] bounds instructions {e per
    processor} (default [1e9]); [domains] (default 1) drives the drain
    loop with that many host domains (results are bit-identical for any
    value). Neither affects the compiled artifacts, which is why they
    live here and not in the cache key.

    Under a non-ideal topology ({!Machine.Topology.Mesh}/[Torus]) the
    per-link busy times are shared mutable state whose update order the
    parallel drain's batching would perturb, so [domains] is forced to
    1 there; the drain stays deterministic. *)
val of_plans : ?limit:int -> ?domains:int -> plans -> t

(** The shared compiled half this engine was built from. Two engines
    answer with physically equal ([==]) values iff they share plans —
    the cache-hit property [Run.Cache]'s tests assert. *)
val shared_plans : t -> plans

(** Number of physically distinct kernel programs in a plan set: one
    per geometry class (ranks agreeing on every array's rank and
    strides). *)
val kernel_classes : plans -> int

type result = {
  time : float;  (** makespan over processors *)
  stats : Stats.t;
  engine : t;  (** the engine itself, for {!gather}/{!final_env} *)
}

(** Run to completion (every processor halted). Raises {!Deadlock} or
    {!Instruction_limit}. *)
val run : t -> result

(** Gather the distributed blocks of one array into a single global
    store (fringe cells ignored) — used to verify against the
    sequential oracle. *)
val gather : t -> int -> Runtime.Store.t

(** Scalar environment after the run (replicated; proc 0's copy). *)
val final_env : t -> Runtime.Values.env

(** The virtual processors, indexed by rank. *)
val procs : t -> proc array

(** A processor's scalar environment. *)
val proc_env : proc -> Runtime.Values.env

(** A processor's local array blocks, indexed by array id. *)
val proc_stores : proc -> Runtime.Store.t array

(** Whether this engine runs the wire-plan communication runtime. *)
val wired : t -> bool

(** The network topology this engine models (default [Ideal]). *)
val topology : t -> Machine.Topology.t

(** Per-link busy-until times after a run (a copy): index by
    [Machine.Topology] link ids. Empty under [Ideal]. Exposed for tests
    that assert occupancy stays finite and phantom boundary links are
    never claimed. *)
val link_occupancy : t -> float array

(** After a run: (staging buffers freshly allocated by the wire pools,
    acquires served from the freelists). The split is a runtime
    diagnostic — it depends on how far senders ran ahead — and is not
    part of the deterministic {!Stats.t}. (0, 0) in legacy mode. *)
val pool_counts : t -> int * int

(** Number of fused kernel groups the op stream was partitioned into
    (0 when fusion is off) — exposed for tests and tooling. *)
val fused_group_count : t -> int

(** Completed executions per flat op index after a run (identical across
    processors — control flow is replicated); communication calls count
    on completion, so a comm op's count is its activation count.
    [Ir.Flat.src_of_op] joins the counters back to structured positions. *)
val op_counts : t -> int array
