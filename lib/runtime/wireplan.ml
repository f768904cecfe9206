(** Pre-compiled wire plans: the allocation-free message runtime.

    A wire plan is the compiled form of one side of one message — all the
    member-array rectangles a processor packs into (or unpacks from) the
    single staging buffer it exchanges with one partner for one transfer.
    At engine-build time the rectangles are flattened against the store's
    actual strides into struct-of-arrays blit descriptors: per row, which
    store, the row's flat base offset in that store, its offset in the
    staging buffer, and its length. Executing the plan is then a pair of
    nested integer loops over unboxed float64 loads and stores — no
    region arithmetic, no intermediate buffers, no allocation.

    Staging buffers come from a per-side {!pool}: a grow-only freelist of
    identically-sized buffers. A buffer is acquired at send time (the
    send-time snapshot), travels inside the simulated message, and is
    released back to the {e sender's} pool when the receiver consumes the
    message — so a sender running several repeat iterations ahead of its
    receiver simply deepens the pool to the high-water mark of in-flight
    messages, after which steady state allocates nothing. *)

type t = {
  aid : int array;  (** per row blit: member store (array id) *)
  store_off : int array;  (** per row blit: flat base offset in that store *)
  stage_off : int array;  (** per row blit: base offset in the staging buffer *)
  len : int array;  (** per row blit: row length *)
  cells : int;  (** staging buffer size: total cells over all blits *)
}

let empty = { aid = [||]; store_off = [||]; stage_off = [||]; len = [||]; cells = 0 }

let cells (p : t) = p.cells
let blits (p : t) = Array.length p.len

(** Compile the canonical rect order of one message side (see
    {!Halo.partner_sides}) into blit descriptors against [stores]'s
    layout. Both ends build their own plan — base offsets differ because
    the local allocs differ — but the staging offsets agree because the
    rects and their order do. *)
let build ~(stores : Store.t array) (rects : (int * Zpl.Region.t) list) : t =
  (* count the rows first so the descriptors fill preallocated arrays *)
  let rows (r : Zpl.Region.t) =
    if Zpl.Region.is_empty r then 0
    else Zpl.Region.size r / Zpl.Region.range_size r.(Array.length r - 1)
  in
  let n = List.fold_left (fun n (_, rect) -> n + rows rect) 0 rects in
  let aid = Array.make n 0 and store_off = Array.make n 0 in
  let stage_off = Array.make n 0 and len = Array.make n 0 in
  let k = ref 0 and total = ref 0 in
  List.iter
    (fun (a, rect) ->
      Store.row_blits stores.(a) rect (fun base l ->
          aid.(!k) <- a;
          store_off.(!k) <- base;
          stage_off.(!k) <- !total;
          len.(!k) <- l;
          incr k;
          total := !total + l))
    rects;
  { aid; store_off; stage_off; len; cells = !total }

(* The copy loops are manual element loops for the same reason as
   [Store.blit_rows]: at halo row lengths, [Array1.sub]+[blit] cost more
   in allocation and C dispatch than the copy itself. *)

(** Pack the plan's store rows into [buf] (send side). *)
let pack (p : t) (stores : Store.t array) (buf : Store.buf) =
  for k = 0 to Array.length p.len - 1 do
    let store = Array.unsafe_get stores (Array.unsafe_get p.aid k) in
    let data = Store.unsafe_data store in
    let s0 = Array.unsafe_get p.store_off k
    and d0 = Array.unsafe_get p.stage_off k
    and l = Array.unsafe_get p.len k in
    for i = 0 to l - 1 do
      Bigarray.Array1.unsafe_set buf (d0 + i)
        (Bigarray.Array1.unsafe_get data (s0 + i))
    done
  done

(** Unpack [buf] into the plan's store rows (receive side). *)
let unpack (p : t) (stores : Store.t array) (buf : Store.buf) =
  for k = 0 to Array.length p.len - 1 do
    let store = Array.unsafe_get stores (Array.unsafe_get p.aid k) in
    let data = Store.unsafe_data store in
    let s0 = Array.unsafe_get p.store_off k
    and d0 = Array.unsafe_get p.stage_off k
    and l = Array.unsafe_get p.len k in
    for i = 0 to l - 1 do
      Bigarray.Array1.unsafe_set data (s0 + i)
        (Bigarray.Array1.unsafe_get buf (d0 + i))
    done
  done

(* ------------------------------------------------------------------ *)
(* Staging buffer pool                                                 *)
(* ------------------------------------------------------------------ *)

type pool = {
  p_cells : int;  (** every buffer of this pool has this size *)
  mutable p_bufs : Store.buf array;  (** freelist storage; [0, p_n) live *)
  mutable p_n : int;
  mutable p_fresh : int;  (** buffers ever allocated (pool misses) *)
  mutable p_reused : int;  (** acquires served from the freelist *)
}

let make_pool ~cells =
  { p_cells = cells; p_bufs = [||]; p_n = 0; p_fresh = 0; p_reused = 0 }

let pool_cells (p : pool) = p.p_cells

(** (fresh allocations, freelist reuses) so far. *)
let pool_stats (p : pool) = (p.p_fresh, p.p_reused)

let acquire (p : pool) : Store.buf =
  if p.p_n > 0 then begin
    p.p_n <- p.p_n - 1;
    p.p_reused <- p.p_reused + 1;
    Array.unsafe_get p.p_bufs p.p_n
  end
  else begin
    p.p_fresh <- p.p_fresh + 1;
    Store.alloc_buf p.p_cells
  end

let release (p : pool) (b : Store.buf) =
  if p.p_n = Array.length p.p_bufs then begin
    (* grow the freelist storage; rare and amortized *)
    let bigger = Array.make (max 4 (2 * p.p_n)) b in
    Array.blit p.p_bufs 0 bigger 0 p.p_n;
    p.p_bufs <- bigger
  end;
  Array.unsafe_set p.p_bufs p.p_n b;
  p.p_n <- p.p_n + 1
