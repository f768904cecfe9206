(** Per-processor counters gathered during simulation. The paper's
    "dynamic count" is the number of communications (transfers) actually
    performed during execution on a single processor; we report the
    maximum over processors, which corresponds to an interior processor of
    the mesh. *)

(** The float accumulators live in their own all-float record: OCaml
    stores such records flat, so the engine's hot-path updates are
    unboxed in-place writes. In a mixed int/float record every
    [t.f <- t.f +. dt] would box a fresh float, which the engine's
    zero-allocation communication path cannot afford. *)
type times = {
  mutable compute : float;
  mutable comm_cpu : float;  (** CPU time spent inside comm calls *)
  mutable wait : float;  (** time blocked on messages / collectives *)
  mutable finish : float;
}

type per_proc = {
  mutable xfers_recv : int;  (** transfer instances with >= 1 incoming piece *)
  mutable xfers_sent : int;  (** transfer instances with >= 1 outgoing piece *)
  mutable msgs_sent : int;
  mutable msgs_recv : int;
  mutable bytes_sent : int;
  mutable bytes_recv : int;
  mutable reduces : int;  (** collective reductions joined *)
  mutable cells : int;  (** array cells computed *)
  times : times;
}

let fresh_proc () =
  { xfers_recv = 0; xfers_sent = 0; msgs_sent = 0; msgs_recv = 0;
    bytes_sent = 0; bytes_recv = 0; reduces = 0; cells = 0;
    times = { compute = 0.0; comm_cpu = 0.0; wait = 0.0; finish = 0.0 } }

(* Pool fresh/reuse accounting deliberately does NOT live here: the
   freelist split depends on how far senders run ahead of receivers,
   while everything in [t] is determined by the program and the machine
   model. See [Engine.pool_counts]. *)
type t = { procs : per_proc array; mutable instructions : int }

let make n = { procs = Array.init n (fun _ -> fresh_proc ()); instructions = 0 }

let fold_max f (t : t) =
  Array.fold_left (fun m p -> max m (f p)) min_int t.procs

(** The paper's per-processor dynamic communication count. *)
let dynamic_count (t : t) = fold_max (fun p -> p.xfers_recv) t

let total_messages (t : t) =
  Array.fold_left (fun n p -> n + p.msgs_sent) 0 t.procs

let total_bytes (t : t) =
  Array.fold_left (fun n p -> n + p.bytes_sent) 0 t.procs

let makespan (t : t) =
  Array.fold_left (fun m p -> Float.max m p.times.finish) 0.0 t.procs
