(** Optimization selection — the switchboard of the paper's instrumented
    compiler: each of the three optimizations can be turned on and off
    individually, and communication combination can run under either of
    the two heuristics of the paper's Figure 2. Dead-branch elimination
    is not a switch: {!Passes.compile} always runs it, since it only
    removes code no execution runs. *)

type heuristic =
  | Max_combine  (** combine without regard for send/receive distance *)
  | Max_latency  (** combine only while no member loses latency-hiding
                     distance ("completely nested" merges) *)

(** How full reductions compile: [Opaque] keeps the vendor-collective
    [ReduceK]; [Forced a] synthesizes every reduction into algorithm
    [a]'s explicit DR/SR/DN/SV rounds; [Auto] picks the cheapest
    algorithm under the target machine's cost model at compile time
    (see {!Collective}). *)
type collective = Opaque | Auto | Forced of Ir.Coll.alg

(** "opaque", "auto", or the algorithm name. *)
val collective_name : collective -> string

(** Inverse of {!collective_name} (CLI flags); [None] on unknown names. *)
val collective_of_string : string -> collective option

type t = {
  rr : bool;  (** redundant communication removal *)
  cc : bool;  (** communication combination *)
  pl : bool;  (** communication pipelining *)
  heuristic : heuristic;
  collective : collective;  (** full-reduction synthesis *)
}

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool

(** Message vectorization only — the paper's baseline. *)
val baseline : t

(** The cumulative rows of the paper's Figure 9. *)
val rr_only : t

val cc_cum : t  (** baseline + rr + cc *)
val pl_cum : t  (** baseline + rr + cc + pl *)
val pl_max_latency : t  (** pl_cum with the max-latency-hiding heuristic *)

(** Short display name: "baseline", "rr", "cc", "pl", "pl-maxlat", or a
    composed description for non-standard combinations. *)
val name : t -> string
