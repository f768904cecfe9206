(** The work budget of one run, shared by the simulator ([Sim.Engine])
    and the sequential oracle ({!Seqexec}), so that every run ends.

    A unit of work is one executed statement or instruction, or one
    array cell computed or reduced. Each executor sums it over all its
    processors and stops the run once the sum passes the budget. The
    oracle computes the simulator's cells once, with at most as many
    statements as the simulator executes instructions, so a run the
    simulator finishes cannot exhaust the oracle under the same budget.

    Allocation counts against the same budget: a run whose stores would
    hold more cells than its budget is refused before anything is
    allocated. *)

(** Raised when a run's work passes its budget; carries the budget. *)
exception Exceeded of int

(** The budget of a run that sets none: [2^30] units. The largest
    bench-scale run (SWM on 8x8) uses under 2% of it, and a loop that
    never ends exhausts it in about 10 s on a 2x2 mesh (EXPERIMENTS.md,
    "One run budget"). *)
val default : int

(** Cells of a region, as a float so that no extent can overflow. *)
val cells : Zpl.Region.t -> float

(** [check_alloc ~limit arrays] — [arrays] pairs each array's
    declaration with the cells the run allocates for it. Raises
    [Failure] naming the largest array and its declared extent when the
    sum is over [limit]. *)
val check_alloc : limit:int -> (Zpl.Prog.array_info * float) array -> unit
