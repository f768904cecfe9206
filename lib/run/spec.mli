(** The canonical description of one simulation request — the single
    way every entry point (zplc, bench, the report drivers, examples)
    constructs engines, and the content-address {!Cache} keys on.

    A spec pins the whole pipeline: source text and constant overrides
    (the program), the optimization configuration, the compile/simulate
    target (machine, library, mesh), and the engine knobs. Build one
    with {!default} and refine it with the [with_*] combinators. *)

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
          the collective cost search. Non-ideal topologies force the
          serial drain ([domains] is ignored). *)
  row_path : bool;
      (** allow the row-compiled kernels; [false] forces the per-point
          oracle path everywhere (default true) *)
  fuse : bool;
      (** let adjacent fusable kernel statements share one region
          evaluation and row traversal — simulated times and statistics
          are unchanged by fusion (default true; implies [row_path]) *)
  cse : bool;
      (** let fused groups hoist repeated shifted-read subterms into row
          temporaries computed once per row; results are bit-identical
          either way (default true; effective only under [fuse]) *)
  wire : bool;
      (** pre-compiled wire-plan communication runtime: per-(transfer,
          partner) blit plans packing all member pieces into one pooled
          staging buffer per message, with dense ring mailboxes —
          steady-state communication allocates nothing. [false] keeps
          the legacy extract/inject path with hashed queues; simulated
          times, statistics and results are bit-identical either way
          (property-tested), so the flag exists for differential tests
          and honest benchmarking (default true) *)
  check : bool;
      (** run {!Analysis.Schedcheck} over the emitted schedule at
          compile time and fail on any diagnostic (default false) *)
  limit : int;
      (** instruction budget {e per processor} (default [1e9]). A pure
          run-time knob: it never changes compiled artifacts, so it is
          excluded from {!key}. *)
  domains : int;
      (** host domains driving the engine's drain loop; results are
          bit-identical for any value (default 1). Run-time only,
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
val with_row_path : bool -> t -> t
val with_fuse : bool -> t -> t
val with_cse : bool -> t -> t
val with_wire : bool -> t -> t
val with_check : bool -> t -> t
val with_limit : int -> t -> t
val with_domains : int -> t -> t

(** Digest of the program inputs alone (the source's MD5 plus the
    canonicalized defines) — the sub-key the parsed-program memo uses,
    so six rows over one benchmark parse it once. *)
val program_digest : t -> string

(** Content address of the spec: a digest over every field that can
    change a compiled artifact — program inputs, config, machine
    parameters, library kind and costs, mesh, topology,
    [row_path]/[fuse]/[cse]/[wire]/[check]. [limit] and [domains] are
    excluded: they only parameterize the mutable engine, never the plans
    (property-tested). Serialization is canonical and injective: the
    source enters as its MD5, strings are length-prefixed, floats are
    written as their IEEE-754 bits in hex, defines are sorted. Each
    domain remembers the MD5s of its last few sources by physical
    identity, so keying the specs of a grid that share one source string
    digests the text once; equal sources that are distinct strings get
    the same key. *)
val key : t -> string

(** Key equality: same compiled artifacts. Runtime-only knobs ([limit],
    [domains]) are ignored, like in {!key}. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

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

(** Compile a spec end to end (parse/check, optimize against the spec's
    machine/lib/mesh, flatten, compile engine plans). [prog] short-cuts
    the parse when the caller already holds the program for
    {!program_digest} (the cache's memo). Raises like the pipeline
    stages it runs. *)
val build : ?prog:Zpl.Prog.t -> t -> artifact

(** A fresh engine over an artifact's shared plans, using the spec's
    [limit] and [domains]. *)
val engine_of : artifact -> Sim.Engine.t

(** Compile (uncached) and run once. Measurement drivers that must not
    share state across calls use this; everything else should go through
    {!Cache.run}. *)
val run : t -> Sim.Engine.result
