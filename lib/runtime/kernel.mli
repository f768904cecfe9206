(** Compilation of per-cell array expressions to closures, and execution
    of whole-array statements and reductions over a region. Shared
    between the parallel simulator (reading local blocks with fringes)
    and the sequential oracle (reading global storage).

    Two execution paths coexist. The {e per-point} path interprets the
    expression tree cell by cell and doubles as the differential-testing
    oracle. The {e row} path compiles the expression once into tight
    loops over contiguous float64 Bigarray rows; every row kernel
    performs the exact same floating-point operation sequence per cell
    as the per-point path, so the two are bit-identical (property-tested
    in [test/test_props.ml], over every arithmetic operator and every
    entry of the intrinsic table). An array expression can hold only
    {!Zpl.Arith.arith} operators, negation and typed
    {!Zpl.Arith.call}s, and the checker gives every read the statement
    region's rank and every [IndexD] a D of at most that rank, so both
    paths handle every expression the checker accepts: the row compiler
    is total, and the per-point path runs only when a caller asks for
    it. Intrinsics evaluate through {!Zpl.Arith.unary}/
    {!Zpl.Arith.binary}; the row path keeps the abs and sqrt loops free
    of per-cell calls. Every statement runs alone: simulated cost is
    charged per statement, so sharing a row traversal among statements
    could only change host speed, and measured at parity.

    {b The store-binding contract.} Compiled plans are store-agnostic:
    a plan may capture array ids, flat shifts (computed against the
    compile-time stores' strides), operator dispatch and coefficient
    structure — never a store's cells, a scalar value, or mutable
    scratch. Everything mutable is passed at execution time inside an
    {!env}: the executor's stores (same geometry as the compile-time
    blueprints), its scalar slots ({!Values.slots}), and a {!workspace}
    minted by {!make_workspace} from the {!envspec} the compile pass
    records. One plan set may therefore be shared by many concurrent
    executors, each with its own env.

    {b The workspace contract.} A kernel keeps nothing in its workspace
    between executions: every row buffer, chain workspace and point
    scratch is written before it is read within one [exec_*] call.
    Workspace slots are therefore numbered per statement (numbering
    restarts at every {!plan_assign} and {!plan_reduce}), an {!envspec}
    is the maximum over statements rather than the sum, and one
    workspace may be bound into the envs of many executors — stores and
    scalars differing — as long as no two of them run a kernel at the
    same time. The engine binds every rank of one engine to one
    workspace: an engine runs one kernel at a time, on one domain.
    Executors that may run concurrently (engines on different domains)
    never share one. *)

(* --- per-point path --- *)

(** Whether the rhs reads the lhs through a nonzero shift — the case
    where in-place evaluation would observe freshly written cells, so
    the assignment must evaluate into a buffer first (array
    semantics). *)
val needs_buffer : Zpl.Prog.assign_a -> bool

(* --- workspace and runtime environment --- *)

(** Workspace slot allocator threaded through one compile pass (one
    [ws] per plan set; plans record slot ids, numbered per statement,
    into the workspace minted from the final spec). *)
type ws

(** [make_ws l] starts a plan set for a program whose scalars live as
    [l] says: a broadcast scalar is read from its float slot, or
    converted from its int slot, by a choice made at compile time. *)
val make_ws : Values.layout -> ws

(** Frozen workspace requirements of a compiled plan set: how many row
    buffers, chain workspaces (and their widths), and integer
    point-scratch ranks the plans' slot ids index into — the maximum
    over the set's statements. *)
type envspec

(** Freeze a workspace builder. Call once, after every plan of the set
    has been compiled. *)
val ws_spec : ws -> envspec

(** The least spec satisfying both: one workspace minted from it serves
    the plan sets of both (the engine joins its geometry classes'). *)
val join_spec : envspec -> envspec -> envspec

(** Mutable kernel scratch satisfying an {!envspec}. See the workspace
    contract above for who may share one. *)
type workspace

val make_workspace : envspec -> workspace

(** Heap words the workspace holds (buffers grown since minting
    included). *)
val workspace_words : workspace -> int

(** The runtime environment every [exec_*] entry takes: stores indexed
    by array id, the executor's scalar slots, and a workspace. *)
type env

(** [make_env ~stores ~slots w] binds an executor's stores and scalar
    slots to workspace [w]. The stores must have the same geometry
    (rank, strides, allocation) as the compile-time blueprints the plans
    were compiled against, and [w] must be minted from a spec at least
    the plans' own ({!ws_spec}, or a {!join_spec} of it). Kernels read
    broadcast scalars from [slots] in place, without boxing. *)
val make_env : stores:Store.t array -> slots:Values.slots -> workspace -> env

(* --- execution plans (the row path, or the per-point one on request) --- *)

type rowctx = {
  rstore : int -> Store.t;
      (** array id -> storage of the target geometry. Shape-only stores
          ({!Store.make_shape}) suffice: only each array's rank and
          strides are consulted at compile time. Compilation must read
          nothing else of a store — the engine shares one compiled
          program among all ranks whose stores agree on rank and
          strides. *)
  rws : ws;  (** the plan set's workspace allocator *)
}

(** A compiled assignment: row kernels, or a per-point closure when
    compiled with [row:false]. Store-agnostic — see the module
    preamble. *)
type plan

(** Compile an assignment into an execution plan. [row:false] forces the
    per-point path (used by differential tests and the benchmark
    harness). *)
val plan_assign : ?row:bool -> rowctx -> Zpl.Prog.assign_a -> plan

(** Execute a plan with this executor's [env] over the region whose
    evaluated bounds are [bounds] (lo and hi of dimension [d] at
    [2d] and [2d+1], as {!Values.bounds} writes them). The region lies
    inside [lhs]'s owned box and, by the statement-region rule
    ({!Zpl.Prog.check_region}), every read it makes inside the read
    array's allocation. The row path walks [bounds] directly and
    allocates nothing; the per-point path builds a {!Zpl.Region.t}.
    Returns the number of cells updated. *)
val exec_plan : plan -> env:env -> lhs:Store.t -> bounds:int array -> int

(** A compiled reduction body. *)
type rplan

val plan_reduce : ?row:bool -> rowctx -> Zpl.Prog.reduce_s -> rplan

(** Local partial of a reduction plan over the region with bounds
    [bounds], as {!exec_plan} takes them (the operator's identity when
    it is empty); it reduces [Zpl.Region.bounds_size bounds] cells. *)
val exec_rplan :
  rplan -> env:env -> bounds:int array -> Zpl.Ast.redop -> float
