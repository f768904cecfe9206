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
    {!Spec.program_digest} and one {!Sim.Engine.geometry} per (program
    digest, mesh): the spec-independent half of the plans, whose fringe
    blueprints are built once and shared by every spec over that program
    and mesh (rows, libraries, machines, topologies), so a miss plans
    only what differs between specs.

    The cache is thread-safe (one mutex around the index; compilation
    itself runs outside the lock, so concurrent misses on different
    specs compile in parallel) and bounded: inserting beyond [capacity]
    evicts the least-recently-used artifact. All traffic is counted in
    {!counters}. *)

type t

(** [create ?capacity ()] — an empty cache holding at most [capacity]
    artifacts (default 256), plus a parsed-program memo and a geometry
    table under the same LRU bound each, so several specs over one
    program (the six paper rows) parse and type-check it once and share
    one geometry per mesh. *)
val create : ?capacity:int -> unit -> t

(** A process-wide cache (capacity 256) for long-lived services; one-off
    drivers and measurement loops should {!create} their own so cross-
    call hits cannot corrupt what they measure. *)
val global : t

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
