(** Local storage for one array on one processor: the owned sub-box plus a
    fringe (ghost region) of configurable width around the distributed
    dimensions. The same structure with an empty fringe and the full
    declared region serves as global storage for the sequential oracle.

    Values live in one flat [Bigarray.Array1] of unboxed float64 in C
    (row-major) layout, so the innermost dimension is stride-1 and a row
    of any rectangle is one contiguous slice: message packing and the row
    kernels move data with [Array1.sub]/[Array1.blit] instead of
    per-point loops. The representation is sealed behind this module —
    callers go through {!read_only}/{!unsafe_data} and the rectangle
    copies, never a record field. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  info : Zpl.Prog.array_info;
  owned : Zpl.Region.t;
  alloc : Zpl.Region.t;
  strides : int array;
  data : buf;
}

let info (s : t) = s.info
let owned (s : t) = s.owned
let alloc (s : t) = s.alloc
let rank (s : t) = Array.length s.strides
let stride (s : t) d = s.strides.(d)
let length (s : t) = Bigarray.Array1.dim s.data
let read_only (s : t) : buf = s.data
let unsafe_data (s : t) : buf = s.data

let alloc_buf n : buf =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0.0;
  b

let grow_buf (r : buf ref) n : buf =
  if Bigarray.Array1.dim !r < n then
    r := Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n;
  !r

let buf_of_array (a : float array) : buf =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a

let buf_to_array (b : buf) : float array =
  Array.init (Bigarray.Array1.dim b) (Bigarray.Array1.get b)

let to_array (s : t) : float array = buf_to_array s.data

let grow (r : Zpl.Region.t) ~fringe : Zpl.Region.t =
  Array.mapi
    (fun d ({ Zpl.Region.lo; hi } as rg) ->
      if d < 2 then { Zpl.Region.lo = lo - fringe; hi = hi + fringe } else rg)
    r

let shape ~(owned : Zpl.Region.t) ~fringe =
  let alloc =
    if Zpl.Region.is_empty owned then owned else grow owned ~fringe
  in
  let rank = Zpl.Region.rank alloc in
  let strides = Array.make rank 1 in
  for d = rank - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * Zpl.Region.range_size (Zpl.Region.dim alloc (d + 1))
  done;
  (alloc, strides)

(* the buffer of every shape-only store: nothing reads or writes it *)
let no_cells = alloc_buf 0

let make_shape (info : Zpl.Prog.array_info) ~(owned : Zpl.Region.t) ~fringe : t
    =
  let alloc, strides = shape ~owned ~fringe in
  { info; owned; alloc; strides; data = no_cells }

let of_shape (s : t) : t =
  let cells =
    if Zpl.Region.is_empty s.alloc then 0 else Zpl.Region.size s.alloc
  in
  { s with data = alloc_buf cells }

let make (info : Zpl.Prog.array_info) ~(owned : Zpl.Region.t) ~fringe : t =
  of_shape (make_shape info ~owned ~fringe)

let index (s : t) (p : int array) =
  let idx = ref 0 in
  for d = 0 to Array.length p - 1 do
    idx := !idx + ((p.(d) - (Zpl.Region.dim s.alloc d).lo) * s.strides.(d))
  done;
  !idx

let get (s : t) (p : int array) : float =
  if not (Zpl.Region.contains_point s.alloc p) then
    Fmt.invalid_arg "Store.get: %s out of %s of %s"
      (String.concat "," (List.map string_of_int (Array.to_list p)))
      (Zpl.Region.to_string s.alloc) s.info.a_name;
  Bigarray.Array1.get s.data (index s p)

let set (s : t) (p : int array) (v : float) =
  if not (Zpl.Region.contains_point s.alloc p) then
    Fmt.invalid_arg "Store.set: %s out of %s of %s"
      (String.concat "," (List.map string_of_int (Array.to_list p)))
      (Zpl.Region.to_string s.alloc) s.info.a_name;
  Bigarray.Array1.set s.data (index s p) v

let get_unsafe (s : t) (p : int array) : float =
  Bigarray.Array1.unsafe_get s.data (index s p)

let set_unsafe (s : t) (p : int array) (v : float) =
  Bigarray.Array1.unsafe_set s.data (index s p) v


let fill_flat (s : t) (f : int -> float) =
  for i = 0 to length s - 1 do
    Bigarray.Array1.unsafe_set s.data i (f i)
  done

let check_rect (s : t) (what : string) (rect : Zpl.Region.t) =
  if not (Zpl.Region.subset rect s.alloc) then
    Fmt.invalid_arg "Store.%s: %s outside %s of %s" what
      (Zpl.Region.to_string rect)
      (Zpl.Region.to_string s.alloc)
      s.info.a_name

(* a manual loop: [Array1.sub] allocates and [Array1.blit] dispatches
   into C, which costs more than the copy itself at typical row lengths *)
let blit_rows (src : buf) s0 (dst : buf) d0 len =
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set dst (d0 + k)
      (Bigarray.Array1.unsafe_get src (s0 + k))
  done

let copy_rect ~(src : t) ~(dst : t) (rect : Zpl.Region.t) =
  check_rect src "copy_rect (src)" rect;
  check_rect dst "copy_rect (dst)" rect;
  Zpl.Region.iter_rows rect (fun p0 len ->
      blit_rows src.data (index src p0) dst.data (index dst p0) len)

let row_blits (s : t) (rect : Zpl.Region.t) (f : int -> int -> unit) =
  check_rect s "row_blits" rect;
  Zpl.Region.iter_rows rect (fun p0 len -> f (index s p0) len)
