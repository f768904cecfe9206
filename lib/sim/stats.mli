(** Per-processor counters gathered during simulation. The paper's
    "dynamic count" is the number of communications (transfers) actually
    performed during execution on a single processor; [dynamic_count]
    reports the maximum over processors, corresponding to an interior
    processor of the mesh. *)

(** Float accumulators, kept in an all-float record so OCaml stores them
    flat and the engine's hot-path updates are unboxed in-place writes
    (a mixed record would box every [+.] result). Every advance of a
    processor's clock is charged to exactly one of [compute], [comm_cpu]
    and [wait], so their sum is [finish] up to rounding. *)
type times = {
  mutable compute : float;  (** kernels and scalar operations *)
  mutable comm_cpu : float;  (** CPU time inside communication calls *)
  mutable wait : float;  (** blocked on messages / collectives *)
  mutable finish : float;  (** the processor's clock when it halted *)
}

type per_proc = {
  mutable xfers_recv : int;  (** transfer instances with >= 1 incoming piece *)
  mutable xfers_sent : int;
  mutable msgs_sent : int;
  mutable msgs_recv : int;
  mutable bytes_sent : int;
  mutable bytes_recv : int;
  mutable reduces : int;  (** collective reductions joined *)
  mutable cells : int;  (** array cells computed *)
  times : times;
}

val fresh_proc : unit -> per_proc

(** Everything in [t] is determined by the program and the machine
    model; staging-pool fresh/reuse accounting depends on how far
    senders run ahead and therefore lives on the engine
    ([Engine.pool_counts]), not here. *)
type t = { procs : per_proc array; mutable instructions : int }

val make : int -> t

(** The paper's per-processor dynamic communication count. *)
val dynamic_count : t -> int

val total_messages : t -> int
val total_bytes : t -> int

(** Simulated end time: the slowest processor's finish. *)
val makespan : t -> float
