(** Content-addressed cache of compiled plan artifacts, keyed by
    {!Spec.key}.

    A hit returns the already-compiled comm schedule, kernel-planning
    tables, wire blit plans and collective schedule ({!Spec.artifact},
    whose pieces are immutable after compile) without recompiling
    anything; {!engine} then mints only the mutable per-engine state
    (stores, channels, statistics) around the shared
    plans. Mutable state is never cached — see DESIGN.md on spec
    canonicalization and cache keying.

    Next to the artifacts the cache keeps a parsed-program memo by
    {!Spec.program_digest}, and in each program's entry one
    {!Sim.Engine.geometry} per mesh: the spec-independent half of the
    plans, whose fringe blueprints are built once and shared by every
    spec over that program and mesh (rows, libraries, machines,
    topologies), so a miss plans only what differs between specs. A
    program's geometries go with its entry when it is evicted.

    The cache is thread-safe and bounded: each table has its own lock,
    and compilation runs outside every lock, so concurrent misses on
    different specs compile in parallel (a racing duplicate yields to
    the first insert). Inserting beyond [capacity] evicts the
    least-recently-used artifact. All artifact traffic is counted in
    {!counters}. *)

type t

(** [create ?capacity ()] — an empty cache holding at most [capacity]
    artifacts (default 256), plus a parsed-program memo under the same
    LRU bound and, per program, a geometry table by mesh under it too,
    so several specs over one program (the six paper rows) parse and
    type-check it once and share one geometry per mesh. Drivers that
    measure create their own cache, so cross-call hits cannot corrupt
    what they measure. *)
val create : ?capacity:int -> unit -> t

type counters = {
  hits : int;  (** lookups answered from the cache *)
  misses : int;  (** lookups that compiled *)
  evictions : int;  (** artifacts dropped by the capacity bound *)
}

val counters : t -> counters
val capacity : t -> int

(** Artifacts currently held. *)
val length : t -> int

(** Drop every entry (counters keep accumulating). *)
val clear : t -> unit

(** [find t spec] with a hit flag: [(artifact, true)] when the artifact
    was served from the cache, [(artifact, false)] when this call
    compiled it. *)
val find : t -> Spec.t -> Spec.artifact * bool

(** [artifact t spec] — {!find} without the flag. *)
val artifact : t -> Spec.t -> Spec.artifact

(** A fresh engine around the (cached or just-compiled) shared plans,
    using the spec's [limit]. *)
val engine : t -> Spec.t -> Sim.Engine.t

(** [run t spec] — {!engine} and run it to completion. *)
val run : t -> Spec.t -> Sim.Engine.result
