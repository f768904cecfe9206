(** Local storage for one array on one processor: the owned sub-box plus a
    fringe (ghost region) around the distributed dimensions. With an empty
    fringe and the full declared region it doubles as global storage for
    the sequential oracle.

    Values live in one flat float64 Bigarray in C (row-major) layout, so
    the innermost dimension is stride-1 and any row of a rectangle is a
    contiguous slice reachable with [Bigarray.Array1.sub]/[blit]. The
    record itself is abstract: readers go through {!get}/{!read_only},
    writers through {!set}/{!copy_rect}, and only the row kernels and
    wire plans touch {!unsafe_data}. *)

(** Flat unboxed float64 buffer, C layout. Also the payload type of
    simulator messages (the staging buffers of {!Wireplan}). *)
type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

(** [make info ~owned ~fringe] allocates storage covering [owned] plus
    [fringe] ghost cells on each side of dimensions 0 and 1 (dimension 2
    of rank-3 arrays is never grown). All cells start at 0. *)
val make : Zpl.Prog.array_info -> owned:Zpl.Region.t -> fringe:int -> t

(** [make_shape info ~owned ~fringe] computes the same [owned]/[alloc]
    regions and strides as {!make} but allocates no data (the flat buffer
    has zero cells). Shape-only stores answer {!alloc}, {!stride},
    {!index} and {!row_blits} — everything plan compilation needs —
    without paying for the cells; reading or writing one is a bounds
    error. *)
val make_shape : Zpl.Prog.array_info -> owned:Zpl.Region.t -> fringe:int -> t

(** [of_shape s] is a store with [s]'s geometry and zero-filled cells —
    what {!make} would return for the arguments that built [s]. The
    geometry (regions and strides) is shared with [s], never copied:
    nothing mutates a store's geometry after it is built. *)
val of_shape : t -> t

val info : t -> Zpl.Prog.array_info

(** Owned part of the declared region; may be empty. *)
val owned : t -> Zpl.Region.t

(** [owned] grown by the fringe in dims 0 and 1. *)
val alloc : t -> Zpl.Region.t

val rank : t -> int

(** Flat-index stride of dimension [d]; the innermost stride is 1. *)
val stride : t -> int -> int

(** Total number of allocated cells. *)
val length : t -> int

(** Flat index of a point inside [alloc] (unchecked arithmetic). *)
val index : t -> int array -> int

(** Bounds-checked accessors; raise [Invalid_argument] outside [alloc]. *)
val get : t -> int array -> float

val set : t -> int array -> float -> unit

(** Unchecked accessors for hot kernel loops; the caller must guarantee
    the point lies in [alloc]. *)
val get_unsafe : t -> int array -> float

val set_unsafe : t -> int array -> float -> unit

(** [fill_flat s f] sets every cell [i] of the flat buffer to [f i];
    test/benchmark seeding helper. *)
val fill_flat : t -> (int -> float) -> unit

(** The underlying flat buffer, for reading. The view is live — writes
    by the owner show through — but callers of [read_only] must not
    mutate it; use {!set}/{!copy_rect}/{!unsafe_data} to write. *)
val read_only : t -> buf

(** The underlying flat buffer, writable. Reserved for the row kernels
    in {!Kernel}; anything else mutating it bypasses the region checks. *)
val unsafe_data : t -> buf

(** [copy_rect ~src ~dst rect] copies the values of [rect] (global
    coordinates, inside both allocs — checked once each) from [src] to
    [dst], one contiguous blit per row. The engine's gather and the
    oracle-verification path use this instead of per-point get/set. *)
val copy_rect : src:t -> dst:t -> Zpl.Region.t -> unit

(** [row_blits s rect f] calls [f base len] once per row of [rect] (inside
    [alloc], checked once), where [base] is the row's flat index into the
    store's buffer — the enumeration wire plans are compiled from. *)
val row_blits : t -> Zpl.Region.t -> (int -> int -> unit) -> unit

(** Conversions between [buf] and boxed [float array], for tests and
    report plumbing. *)
val buf_of_array : float array -> buf

val buf_to_array : buf -> float array

(** Snapshot of the whole flat buffer as a boxed array (bit-comparison
    helper for differential tests). *)
val to_array : t -> float array

(** Fresh zero-filled buffer of [n] cells. *)
val alloc_buf : int -> buf

(** [blit_rows src s0 dst d0 len] copies [src.(s0 .. s0+len-1)] to
    [dst.(d0 ..)], unchecked: the row copy of {!copy_rect} and the row
    kernels. A plain loop, since [Array1.sub] allocates and
    [Array1.blit] calls into C, which cost more than the copy at row
    lengths. *)
val blit_rows : buf -> int -> buf -> int -> int -> unit

(** [grow_buf r n] returns a buffer of at least [n] cells, reallocating
    (and replacing [!r]) when the current one is too small — the
    scratch-row allocator of the row kernels' write buffers and operand
    rows. Cells beyond those the caller fills are unspecified after
    growth. *)
val grow_buf : buf ref -> int -> buf
