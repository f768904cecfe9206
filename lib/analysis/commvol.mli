(** Static communication-volume analysis over the final IR: for every
    communication site (one DR/SR/DN/SV transfer quadruple — the unit
    the paper counts), the exact per-processor per-activation
    {message, byte, comm-CPU} coefficients — computed from
    {!Runtime.Halo.partner_sides} / {!Ir.Coll.role}, the same sources
    {!Sim.Engine} builds its plans from — and an {!Absint} interval
    bounding how often the site executes. Products give static bounds on
    the engine's dynamic statistics; substituting measured activation
    counts gives predictions that must match the statistics exactly (see
    [Run.Predict]). The opaque vendor-reduction path ([ReduceK]) is
    modeled by the engine as computation, not messages, and accordingly
    contributes nothing; synthesized collective rounds are fully
    counted. *)

(** What one activation of a site charges one processor. *)
type coeff = {
  c_msgs_sent : int;
  c_bytes_sent : int;
  c_msgs_recv : int;
  c_bytes_recv : int;
  c_xfer_sent : bool;  (** counts one [xfers_sent] per activation *)
  c_xfer_recv : bool;  (** counts one [xfers_recv] per activation *)
  c_cpu : float;  (** comm-CPU seconds per activation *)
}

type site = {
  st_xfer : int;  (** transfer id *)
  st_pos : int;  (** preorder position of the site's first call *)
  st_desc : string;  (** [Transfer.describe] *)
  st_loops : int list;  (** enclosing loop positions, innermost first *)
  st_acts : Absint.ival;  (** static activation-count bound *)
  st_coeffs : coeff array;  (** per processor *)
}

type t = {
  cv_nprocs : int;
  cv_sites : site list;  (** in preorder position order *)
}

(** [analyze ~lib ~pr ~pc p] — coefficients for the [pr x pc] mesh
    under [lib]'s cost model, activation bounds from {!Absint.analyze}
    on [p]. Counts and comm-CPU are
    topology-invariant (the interconnect shifts arrival and wait times
    only), so no topology parameter exists. *)
val analyze :
  lib:Machine.Library.t ->
  pr:int ->
  pc:int ->
  Ir.Instr.program ->
  t

(** Static per-processor totals: coefficient x activation interval,
    summed over sites. *)
type totals = {
  t_msgs_sent : Absint.ival;
  t_bytes_sent : Absint.ival;
  t_msgs_recv : Absint.ival;
  t_bytes_recv : Absint.ival;
  t_xfers_sent : Absint.ival;
  t_xfers_recv : Absint.ival;
  t_cpu : Absint.ival;
}

val proc_totals : t -> int -> totals

(** Bound on the paper's dynamic count (max over processors of
    [xfers_recv]). *)
val dynamic_count_bound : t -> Absint.ival

(** Exact prediction from measured per-site activation counts. *)
type exact = {
  e_msgs_sent : int;
  e_bytes_sent : int;
  e_msgs_recv : int;
  e_bytes_recv : int;
  e_xfers_sent : int;
  e_xfers_recv : int;
  e_cpu : float;
}

val exact_totals : t -> acts:(site -> int) -> int -> exact
val exact_dynamic_count : t -> acts:(site -> int) -> int
