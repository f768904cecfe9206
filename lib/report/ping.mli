(** Figure 6 driver: exposed software overhead per communication primitive
    set, measured as the paper's synthetic benchmark does — a message
    ping-pongs between two nodes with busy loops hiding the transmission;
    the busy-only variant's time is subtracted. *)

type point = { doubles : int; overhead : float (* seconds per transfer *) }

type curve = {
  machine : Machine.Params.t;
  lib : Machine.Library.t;
  points : point list;
}

val default_sizes : int list

(** All five curves of Figure 6 (three Paragon NX sets, T3D PVM + SHMEM)
    at [sizes] (default {!default_sizes}) and [iters] ping-pongs (default
    50), run as one {!Run.Sweep.run} over the default pool. *)
val figure6 : ?sizes:int list -> ?iters:int -> unit -> curve list

(** First size whose overhead exceeds twice the smallest-message overhead
    — the paper puts it at ~512 doubles (4 KB). *)
val knee : curve -> int option
