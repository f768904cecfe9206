(** Minimal JSON building blocks shared by every artifact writer. All
    writers append to a caller-owned [Buffer.t], so hot emit paths can
    render into one reused buffer instead of allocating intermediate
    strings per row. *)

(** Append [s] as a JSON string value: quoted and escaped. *)
val add_str : Buffer.t -> string -> unit

(** Append an object key: the quoted escaped name followed by [": "].
    Separators (commas, braces, indentation) stay with the caller. *)
val add_key : Buffer.t -> string -> unit

val add_bool : Buffer.t -> bool -> unit
val add_int : Buffer.t -> int -> unit

(** Flat-artifact number format: integral values print as integers
    ([%.0f], up to 1e15), everything else with four decimals. *)
val add_num : Buffer.t -> float -> unit

(** Round-trip float format ([%.17g]) — for values like simulated times
    whose exact bits matter to downstream comparisons. *)
val add_exact : Buffer.t -> float -> unit

(** Fixed-point with [digits] decimals ([%.*f]) — wall-clock seconds
    and other human-scaled measurements. *)
val add_fixed : Buffer.t -> int -> float -> unit
