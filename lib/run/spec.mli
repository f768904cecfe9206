(** The canonical description of one simulation request, and the only
    way from source to compiled artifacts and engines: zplc, the bench
    harness, the report drivers, the examples and [Commopt.verify] all
    compile through {!compile} and plan through {!plan}, and run through
    {!Cache.run} or {!Sweep.run}, which key on the spec's content
    address; there is no uncached run.

    A spec pins the whole pipeline: source text and constant overrides
    (the program), the optimization configuration, the compile/simulate
    target (machine, library, mesh), and the engine knobs. One target
    serves both halves, so collectives synthesized for the spec's mesh
    are always planned on that mesh. Build one with {!default} and
    refine it with the [with_*] combinators. *)

type t = {
  source : string;  (** mini-ZPL source text *)
  defines : (string * float) list;
      (** [constant] overrides (e.g. problem size). Canonicalized by
          {!with_defines}: sorted by name, so binding order does not
          change the {!key}. *)
  config : Opt.Config.t;  (** optimization selection (rr/cc/pl/collective) *)
  machine : Machine.Params.t;  (** simulated machine's cost parameters *)
  lib : Machine.Library.t;  (** communication primitive set *)
  mesh : int * int;  (** [pr x pc] processor mesh *)
  topology : Machine.Topology.t;
      (** interconnect geometry. [Ideal] (the default) is the seed's
          flat contention-free model, bit-identical to the pre-topology
          engine; [Mesh]/[Torus] route every message dimension-order
          over the [pr x pc] grid with per-link occupancy, and steer
          the collective cost search. *)
  check : bool;
      (** run {!Analysis.Schedcheck} over the emitted schedule at
          compile time and fail on any diagnostic (default false) *)
  limit : int;
      (** instruction budget {e per processor} (default [1e9]). A pure
          run-time knob: it never changes compiled artifacts, so it is
          excluded from {!key}. *)
}

(** A spec for [source] with the pipeline's defaults: no defines,
    [Opt.Config.pl_cum], the T3D + PVM target on a 4x4 mesh, all engine
    knobs at their defaults. *)
val default : string -> t

val with_defines : (string * float) list -> t -> t
val with_config : Opt.Config.t -> t -> t

(** Replace only the collective-synthesis mode of the config. *)
val with_collective : Opt.Config.collective -> t -> t

val with_machine : Machine.Params.t -> t -> t
val with_lib : Machine.Library.t -> t -> t

(** Set machine and library together (they usually travel as a pair:
    T3D+PVM, T3D+SHMEM, Paragon+NX). *)
val with_target : Machine.Params.t -> Machine.Library.t -> t -> t

val with_mesh : int -> int -> t -> t
val with_topology : Machine.Topology.t -> t -> t
val with_check : bool -> t -> t
val with_limit : int -> t -> t

(** Digest of the program inputs alone (the source's MD5 plus the
    canonicalized defines) — the sub-key the parsed-program memo uses,
    so six rows over one benchmark parse it once. *)
val program_digest : t -> string

(** Content address of the spec: a digest over every field that can
    change a compiled artifact — program inputs, config, machine
    parameters, library kind and costs, mesh, topology and
    [check]. [limit] is excluded: it only
    parameterizes the mutable engine, never the plans (property-tested). Serialization is canonical and injective: the
    source enters as its MD5, strings are length-prefixed, floats are
    written as their IEEE-754 bits in hex, defines are sorted. Each
    domain remembers the MD5s of its last few sources by physical
    identity, so keying the specs of a grid that share one source string
    digests the text once; equal sources that are distinct strings get
    the same key. *)
val key : t -> string

(** Key equality: same compiled artifacts. The runtime-only [limit] is
    ignored, like in {!key}. *)
val equal : t -> t -> bool

(** The compiled half of a spec: everything up to and including the
    engine plans, all immutable and shareable. This is the value
    {!Cache} stores. *)
type artifact = private {
  a_spec : t;  (** the spec it was compiled from *)
  a_prog : Zpl.Prog.t;
  a_ir : Ir.Instr.program;
  a_flat : Ir.Flat.t;
  a_plans : Sim.Engine.plans;
}

(** Parse and type-check the spec's program (source and defines). *)
val parse : t -> Zpl.Prog.t

(** The front half of {!build}: parse/check, optimize against the spec's
    machine/lib/mesh, flatten — no engine plans, so its cost does not
    grow with the simulated mesh or the array sizes. *)
val compile :
  ?prog:Zpl.Prog.t -> t -> Zpl.Prog.t * Ir.Instr.program * Ir.Flat.t

(** The back half of {!build}: the engine plans of [flat] on the spec's
    machine, library, mesh and topology — the one call site of
    {!Sim.Engine.plan}. [flat] is normally the spec's own {!compile}
    output; a caller holding another flat program over the same target
    (a hand-built or timed one) plans it here too. [geometry] is the
    spec-independent half of the plans: it must have been built over
    [flat]'s program and the spec's mesh (default: a fresh one); the
    cache passes the one its program entry keeps for the mesh, shared
    across specs. Raises like {!Sim.Engine.plan}. *)
val plan : ?geometry:Sim.Engine.geometry -> t -> Ir.Flat.t -> Sim.Engine.plans

(** Compile a spec end to end: {!compile}, then {!plan}. [prog]
    short-cuts the parse when the caller already holds the program for
    {!program_digest} (the cache's memo); [geometry] goes to {!plan}.
    Raises like the pipeline stages it runs. *)
val build :
  ?prog:Zpl.Prog.t -> ?geometry:Sim.Engine.geometry -> t -> artifact

(** A fresh engine over an artifact's shared plans, using the spec's
    [limit] — how {!Cache.run} and {!Sweep.run} mint the engines they
    run. *)
val engine_of : artifact -> Sim.Engine.t
