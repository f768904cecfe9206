(** Pre-compiled wire plans: the allocation-free message runtime.

    A wire plan compiles one side of one message — the member-array
    rectangles a processor exchanges with one partner for one transfer —
    into flat integer blit descriptors against the store's actual
    strides. Executing a plan is a pair of nested integer loops over
    unboxed float64 element copies: no region arithmetic, no per-rect
    buffers, no allocation. Staging buffers come from a per-side
    grow-only freelist ({!pool}); a buffer is acquired at send time
    (snapshot), travels inside the message, and returns to the sender's
    pool when the receiver consumes it. *)

type t

(** Staging buffer size in cells (8 bytes each). *)
val cells : t -> int

(** Number of row blits the plan performs. *)
val blits : t -> int

(** Compile the canonical rect order of one message side (see
    {!Halo.partner_sides}) against [stores]'s layout. Sender and
    receiver build their own plan — store offsets differ, staging
    offsets agree because the rects and their order do. Raises
    [Invalid_argument] if a rect falls outside its store's alloc. *)
val build : stores:Store.t array -> (int * Zpl.Region.t) list -> t

(** Copy store rows into a staging buffer (send side). The buffer must
    hold at least {!cells} values. *)
val pack : t -> Store.t array -> Store.buf -> unit

(** Copy a staging buffer back into store rows (receive side). *)
val unpack : t -> Store.t array -> Store.buf -> unit

(** Grow-only freelist of identically-sized staging buffers. *)
type pool

val make_pool : cells:int -> pool

(** (fresh allocations, freelist reuses) so far; steady state means the
    fresh count stops growing. *)
val pool_stats : pool -> int * int

(** Pop a buffer, or allocate one when the freelist is dry (warm-up and
    receiver-lag growth only). Contents are unspecified. *)
val acquire : pool -> Store.buf

(** Return a buffer to the freelist. Release only buffers acquired from
    the same pool: all buffers of a pool share one size. *)
val release : pool -> Store.buf -> unit
