(** Dense rectangular index regions of rank 1..3 — the unit of iteration
    for whole-array statements, the declared extent of parallel arrays,
    and the currency of all ownership/halo arithmetic. *)

type range = { lo : int; hi : int }  (** inclusive; empty when [hi < lo] *)

type t = range array  (** one range per dimension *)

val pp_range : Format.formatter -> range -> unit
val show_range : range -> string
val equal_range : range -> range -> bool
val compare_range : range -> range -> int
val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

val range : int -> int -> range

(** [make [(lo, hi); ...]] builds a region from per-dimension bounds. *)
val make : (int * int) list -> t

val rank : t -> int
(** Whether every extent of [r] and its number of points lie in the int
    range. The checker rejects any declared or static region that does
    not; {!range_size} and {!size} raise [Invalid_argument] on one. *)
val fits : t -> bool

val range_size : range -> int

(** Number of points; 0 when any dimension is empty. *)
val size : t -> int

val is_empty : t -> bool

(** The [i]-th dimension's range. *)
val dim : t -> int -> range

(** Intersection; raises [Invalid_argument] on rank mismatch. *)
val inter : t -> t -> t

(** Smallest region containing both arguments (empty args are ignored). *)
val hull : t -> t -> t

(** Translate by an offset vector of matching rank; raises
    [Invalid_argument] if a shifted bound leaves the int range. *)
val shift : t -> int array -> t

val contains_point : t -> int array -> bool

(** [subset a b] — every point of [a] lies in [b]; empty regions are
    subsets of everything. *)
val subset : t -> t -> bool

(** Iterate all points in row-major order.

    Reused-point-buffer contract: the [int array] passed to the callback
    is a single scratch buffer owned by the iterator and overwritten in
    place between calls — callbacks must either consume it immediately or
    copy it ([Array.copy]) before retaining it. Rank-1/2/3 regions iterate
    through specialized nested loops whose bounds are read once, without
    the generic odometer recursion. *)
val iter : t -> (int array -> unit) -> unit

(** [iter_rows r f] calls [f p0 len] once per row of [r] in row-major
    order, where [p0] is the row's start point (innermost coordinate at
    its [lo]) and [len] the innermost extent. A rank-1 region is a single
    row. The same reused-point-buffer contract as {!iter} applies to
    [p0]. *)
val iter_rows : t -> (int array -> int -> unit) -> unit

(** Closure-free row cursor over the same rows, in the same order, as
    {!iter_rows}, for loops that must not allocate: the caller owns the
    point buffer [p] (length [rank r]), sets it with [first_row r p],
    and after handling each row start [p] (row length
    [range_size (dim r (rank r - 1))]) steps it with [next_row r p],
    [row_count r] times in all. [row_count] is 0 for an empty region. *)
val row_count : t -> int

val first_row : t -> int array -> unit
val next_row : t -> int array -> unit

val fold : t -> ('a -> int array -> 'a) -> 'a -> 'a

(** ["[lo..hi, lo..hi]"] rendering used in error messages and dumps. *)
val to_string : t -> string
