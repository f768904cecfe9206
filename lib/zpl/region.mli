(** Dense rectangular index regions of rank 1..3 — the unit of iteration
    for whole-array statements, the declared extent of parallel arrays,
    and the currency of all ownership/halo arithmetic. *)

type range = { lo : int; hi : int }  (** inclusive; empty when [hi < lo] *)

type t = range array  (** one range per dimension *)

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

(** {2 Bounds}

    The int form of a region: lo and hi of dimension [d] at [b.(2d)] and
    [b.(2d+1)]. The executors evaluate every statement region into such
    an array ([Runtime.Values.bounds]), check it
    ({!Prog.check_region}) and hand it to the kernels, which walk it
    with the row cursor below. Only the two conversions allocate. *)

val bounds : t -> int array
val of_bounds : int array -> t

(** Number of points; 0 when any dimension is empty, -1 when an
    extent or the count passes max_int (as for a region that does not
    {!fits}). *)
val bounds_size : int array -> int

(** Closure-free row cursor over bounds [b], for loops that must not
    allocate; it visits the rows of {!iter_rows} in the same order. The
    caller owns the point buffer [p] (one entry per dimension), sets it
    with [first_row b p], and after handling each row start [p] (row
    length [b.(2n-1) - b.(2n-2) + 1] at rank [n]) steps it with
    [next_row b p], [row_count b] times in all. [row_count] is 0 for
    empty bounds. *)
val row_count : int array -> int

val first_row : int array -> int array -> unit
val next_row : int array -> int array -> unit

val fold : t -> ('a -> int array -> 'a) -> 'a -> 'a

(** ["[lo..hi, lo..hi]"] rendering used in error messages and dumps. *)
val to_string : t -> string
