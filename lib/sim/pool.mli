(** A domain pool for independent task lists: the experiment grid and
    the spec sweep run each simulation in its own engine.

    Deterministic by construction: tasks are pure functions of their
    inputs plus disjoint per-task state, results land in input order, so
    parallel output is bit-identical to serial output regardless of
    domain count or interleaving. *)

(** Number of worker domains used when none is requested: the runtime's
    recommendation, which respects the machine's core count. *)
val default_domains : unit -> int

(** [parmap ~domains f xs] maps [f] over [xs] on a pool of [domains]
    domains (the calling domain included), preserving order. Work is
    claimed dynamically from a shared counter, so uneven task costs load
    balance. [domains <= 1] (or a singleton/empty list) degrades to
    plain [List.map]. The first raised exception (in input order) is
    re-raised after all domains join. *)
val parmap : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
