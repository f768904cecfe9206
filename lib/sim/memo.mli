(** A bounded, thread-safe find-or-build table: the one memoization
    discipline behind a geometry's fringe blueprints ({!Engine.geometry}),
    [Run.Cache] (artifacts, parsed programs, each program's geometries)
    and [Run.Sweep] (result rows).

    A lookup runs under the table's lock; a miss builds outside it, so
    concurrent misses on different keys build in parallel, and a racing
    duplicate build of one key yields to the first insert (both builds
    are correct; every caller gets the inserted value, so physical
    equality holds across callers). Inserting beyond [capacity] evicts
    the least recently used entry. *)

type ('k, 'v) t

(** [create ~capacity ()] — an empty table holding at most [capacity]
    entries ([max_int]: unbounded). *)
val create : capacity:int -> unit -> ('k, 'v) t

(** [find_or_build t k build] — [(v, true)] when [k] was present,
    [(v, false)] when this call ran [build ()] (whose value, or a racing
    first insert's, is returned). Counts one hit or one miss; an
    exception from [build] propagates and inserts nothing. *)
val find_or_build : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool

(** Cumulative [(hits, misses, evictions)]. *)
val counters : ('k, 'v) t -> int * int * int

(** Entries currently held. *)
val length : ('k, 'v) t -> int

(** Drop every entry (counters keep accumulating). *)
val clear : ('k, 'v) t -> unit
