(** Batch front end: stream a grid of specs through the work-stealing
    domain pool ({!Sim.Pool.parmap}), answering each from the plan
    {!Cache}, and emit an incremental JSON artifact.

    A sweep service also memoizes finished {e result rows}: the
    simulator is deterministic, so an item whose spec (and [limit]) was
    already swept is answered from the memo without building an engine
    or re-simulating — a repeated-spec grid costs one simulation per
    distinct spec. The memo holds only immutable summary numbers
    (simulated time, counts), never engine state. It is the same
    find-or-build table as the cache's, unbounded: a miss simulates
    outside its lock, and a racing duplicate of one spec yields to the
    first insert.

    [Report.Experiment] runs the paper's grids through {!run}, one
    fresh service per grid.

    Rows are appended to [out] (and flushed) as items complete — in
    completion order when [domains > 1] — so a long sweep's artifact is
    inspectable while it runs; the closing summary carries the cache's
    hit/miss/evict counters alongside the aggregated staging-pool
    counts ({!Sim.Engine.pool_counts}). *)

type item = { label : string; spec : Spec.t }

type row = {
  r_label : string;
  r_hit : bool;  (** served without compiling: plan-cache or memo hit *)
  r_memo : bool;  (** answered from the result memo (no simulation) *)
  r_time : float;  (** simulated seconds *)
  r_static : int;  (** static transfer count *)
  r_dynamic : int;  (** dynamic transfer count *)
  r_wall : float;  (** host seconds for this item (build + run) *)
}

type summary = {
  rows : row list;  (** per item, in input order *)
  hits : int;  (** rows served without compiling *)
  misses : int;  (** rows that compiled their spec *)
  memo_hits : int;  (** rows served without simulating *)
  counters : Cache.counters;  (** the cache's cumulative counters after *)
  pool_fresh : int;  (** staging buffers allocated, summed over run engines *)
  pool_reused : int;  (** pool acquires served from freelists, summed *)
  wall : float;  (** host seconds for the whole sweep *)
}

(** A sweep service: a plan {!Cache} plus the result memo. Both persist
    across {!run} calls, so re-sweeping a grid on the same service is
    pure lookup. *)
type t

(** [create ()] — a fresh service over [cache] (default a private
    {!Cache.create}[ ()]). *)
val create : ?cache:Cache.t -> unit -> t

val cache : t -> Cache.t

(** Forget every memoized result row (the plan cache is untouched). *)
val reset_memo : t -> unit

(** [run t items] simulates every item not yet in [t]'s memo, answering
    compiled artifacts from [t]'s cache, over [domains] pool workers
    (default: {!Sim.Pool}'s width, [Domain.recommended_domain_count ()];
    results and their order are independent of the value).
    [out], when given, receives the incremental JSON artifact: an object
    whose ["sweep"] array grows row by row, closed with the summary
    fields ["specs"], ["hits"], ["misses"], ["memo_hits"],
    ["evictions"], ["pool_fresh"], ["pool_reused"],
    ["gc_minor_words"], ["gc_promoted_words"], ["wall_sec"],
    ["specs_per_sec"]. Each pool worker renders its rows into one
    reused buffer; only the byte write is serialized. *)
val run : ?domains:int -> ?out:out_channel -> t -> item list -> summary
