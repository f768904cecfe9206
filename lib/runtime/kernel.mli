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
    in [test/test_props.ml]). Adjacent compatible statements can
    additionally {e fuse} into a single row traversal — see
    {!can_join} / {!plan_fused}.

    {b The store-binding contract.} Compiled plans are store-agnostic:
    a plan may capture array ids, flat shifts (computed against the
    compile-time stores' strides), operator dispatch and coefficient
    structure — never a store's cells, a scalar value, or mutable
    scratch. Everything mutable is passed at execution time inside an
    {!env}: the executor's stores (same geometry as the compile-time
    blueprints), its scalar reader, and a workspace minted by
    {!make_env} from the {!envspec} the compile pass records. One plan
    set may therefore be shared by many concurrent executors, each with
    its own env. *)

(* --- per-point path --- *)

type ctx = {
  read : int -> int array -> float;  (** array id, global coordinates *)
  scalar : int -> float;  (** numeric scalar value *)
}

(** [compile ctx e] builds a closure evaluating [e] at a global point.
    The point buffer passed in is never retained. *)
val compile : ctx -> Zpl.Prog.aexpr -> int array -> float

(** Whether the rhs reads the lhs through a nonzero shift — the case
    where in-place evaluation would observe freshly written cells, so
    the assignment must evaluate into a buffer first (array
    semantics). *)
val needs_buffer : Zpl.Prog.assign_a -> bool

(** Execute an array assignment over [region] (already intersected with
    ownership by the caller) on the per-point path. [write] stores into
    the lhs array. Returns the number of cells updated. *)
val exec_assign :
  ctx ->
  write:(int array -> float -> unit) ->
  region:Zpl.Region.t ->
  Zpl.Prog.assign_a ->
  int

(** Local partial of a reduction over [region] on the per-point path:
    (partial, cells). The partial is the operator's identity when the
    region is empty. *)
val exec_reduce :
  ctx -> region:Zpl.Region.t -> Zpl.Prog.reduce_s -> float * int

(* --- workspace and runtime environment --- *)

(** Workspace slot allocator threaded through one compile pass (one
    [ws] per plan set; plans record slot ids into the env built from
    the final spec). *)
type ws

val make_ws : unit -> ws

(** Frozen workspace requirements of a compiled plan set: how many row
    buffers, chain workspaces (and their widths), and integer
    point-scratch ranks the plans' slot ids index into. *)
type envspec

(** Freeze a workspace builder. Call once, after every plan of the set
    has been compiled. *)
val ws_spec : ws -> envspec

(** Number of row-buffer slots in a spec (observability for tests). *)
val envspec_buffers : envspec -> int

(** The runtime environment every [exec_*] entry takes: stores indexed
    by array id, the scalar reader, and this executor's mutable
    workspace. Envs are cheap; mint one per executor and never share
    one across threads. *)
type env

(** [make_env ~stores ~scalar spec] binds an executor's stores and
    scalar reader to a fresh workspace satisfying [spec]. The stores
    must have the same geometry (rank, strides, allocation) as the
    compile-time blueprints the plans were compiled against. *)
val make_env :
  stores:Store.t array -> scalar:(int -> float) -> envspec -> env

(* --- execution plans (row path with per-point fallback) --- *)

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

(** A compiled assignment: row kernels when the row compiler succeeds,
    per-point closure otherwise. Store-agnostic — see the module
    preamble. *)
type plan

(** Compile an assignment into an execution plan. [row:false] forces the
    per-point fallback (used by differential tests and the benchmark
    harness). *)
val plan_assign : ?row:bool -> rowctx -> Zpl.Prog.assign_a -> plan

(** Whether the plan took the row path. *)
val plan_is_row : plan -> bool

(** Execute a plan over [region] (already clipped to ownership and lying
    inside [lhs]'s allocation) with this executor's [env]. Returns the
    number of cells updated. *)
val exec_plan :
  plan -> env:env -> lhs:Store.t -> region:Zpl.Region.t -> int

(** A compiled reduction body. *)
type rplan

val plan_reduce : ?row:bool -> rowctx -> Zpl.Prog.reduce_s -> rplan

(** Local partial of a reduction plan over [region] (the operator's
    identity when it is empty); it reduces [Zpl.Region.size region]
    cells. *)
val exec_rplan :
  rplan -> env:env -> region:Zpl.Region.t -> Zpl.Ast.redop -> float

(* --- statement fusion --- *)

(** Whether statement [s] may join a fused group already containing
    [group] (statically, before row compilation). The conditions: [s]
    needs no whole-region buffering; same iteration-region expression
    and same declared lhs region as the group (one bounds computation
    and one ownership rectangle serve all); no member reads another
    member's lhs, in either direction; and no two members write the
    same array.

    Soundness needs only part of the last two: fused rows run in
    statement order, so the one observable hazard is a member reading
    another member's lhs through a nonzero shift. Zero-shift cross
    reads and a shared lhs are safe but refused, which keeps the
    partition every paper benchmark has always had (admitting them
    regroups all four and measured slower). *)
val can_join :
  arrays:(int -> Zpl.Prog.array_info) ->
  Zpl.Prog.assign_a list ->
  Zpl.Prog.assign_a ->
  bool

(** A group of row-compiled statements sharing one region traversal,
    possibly preceded by CSE row temporaries: repeated shifted-read
    subterms of the group's right-hand sides, hoisted so each is
    computed once per row instead of once per use. Hoisting is only
    performed when it is bitwise-invisible — the subterm reads no array
    any fused statement writes (so its value is invariant across the
    group's interleaved execution), occurrences are matched by syntactic
    equality only, and the temp row is produced with the same
    left-to-right float evaluation order as the in-place term. *)
type fplan

(** Row-compile a legal group (per {!can_join}) of at least two
    statements into a fused plan; [None] if any statement falls back to
    the per-point path, in which case the caller executes the group
    statement by statement. [cse] (default [true]) controls subterm
    hoisting — the [--no-cse] escape hatch; plans built with different
    [cse] values are distinct, so plan caches must key on the flag. *)
val plan_fused :
  ?cse:bool -> rowctx -> Zpl.Prog.assign_a array -> fplan option

(** Number of hoisted row temporaries in a fused plan (0 when compiled
    with [~cse:false] or when no subterm repeats). *)
val fused_temp_count : fplan -> int

(** Execute a fused plan: one traversal of [region], all statements per
    row, in statement order, with this executor's [env] (which supplies
    the lhs stores by array id). Returns the total number of cells
    updated (region size times the number of statements). *)
val exec_fused : fplan -> env:env -> region:Zpl.Region.t -> int

(* --- dynamic bounds checking --- *)

(** The distinct (array, shift) reads of an expression, extracted once
    at plan time so the per-execution bounds check walks a short array
    instead of the whole AST. *)
type refs = (int * int array) array

val refs_of : Zpl.Prog.aexpr -> refs

(** Runtime validation that every read in [rs] over [region] stays
    inside the referenced array's allocated storage on this executor
    ([stores], indexed by array id) — the dynamic counterpart of the
    checker's static shift-bounds test, needed for loop-variant
    regions. Allocation-free; raises [Failure] on a violation. *)
val check_ref_bounds :
  region:Zpl.Region.t -> stores:Store.t array -> refs -> unit
