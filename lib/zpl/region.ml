(** Dense rectangular index regions of rank 1..3.

    A region is an array of inclusive [lo, hi] ranges, one per dimension.
    Regions are the unit of iteration for whole-array statements and the
    declared extent of parallel arrays. *)

type range = { lo : int; hi : int } [@@deriving show, eq, ord]

type t = range array [@@deriving show, eq, ord]

let range lo hi = { lo; hi }

let make bounds = Array.of_list (List.map (fun (lo, hi) -> { lo; hi }) bounds)

let rank (r : t) = Array.length r

(* [n] cells times the extent [lo..hi], or -1 when [n] is, or the
   extent or the product passes max_int. For [hi >= lo], [hi - lo + 1]
   wraps to at most 0 exactly when the extent does; [n * e] cannot wrap
   while both factors are below 2^31. *)
let[@inline] times_extent n lo hi =
  let e = if hi < lo then 0 else hi - lo + 1 in
  if n < 0 || (hi >= lo && e <= 0) then -1
  else if (n lor e) lsr 31 <> 0 && e > 0 && n > max_int / e then -1
  else n * e

(* The cell count, or -1 when an extent or the count passes max_int. *)
let cells (r : t) =
  let n = ref 1 in
  for d = 0 to Array.length r - 1 do
    n := times_extent !n r.(d).lo r.(d).hi
  done;
  !n

let fits r = cells r >= 0
let past_int what = invalid_arg ("Region: " ^ what ^ " past max_int")
let too_large () = past_int "extent or cell count"

let range_size { lo; hi } =
  if hi < lo then 0
  else
    let n = hi - lo + 1 in
    if n <= 0 then too_large () else n

let size (r : t) =
  let n = cells r in
  if n < 0 then too_large () else n

(* [is_empty] and [subset] run on every kernel dispatch, so they loop
   by hand: [Array.exists]/[Array.for_all2] allocate a closure per call. *)
let is_empty (r : t) =
  let e = ref false in
  for d = 0 to Array.length r - 1 do
    if r.(d).hi < r.(d).lo then e := true
  done;
  !e

let dim (r : t) i = r.(i)

(** Intersection; raises [Invalid_argument] on rank mismatch. *)
let inter (a : t) (b : t) : t =
  if rank a <> rank b then invalid_arg "Region.inter: rank mismatch";
  Array.map2 (fun x y -> { lo = max x.lo y.lo; hi = min x.hi y.hi }) a b

(** Smallest region containing both arguments. *)
let hull (a : t) (b : t) : t =
  if rank a <> rank b then invalid_arg "Region.hull: rank mismatch";
  if is_empty a then b
  else if is_empty b then a
  else Array.map2 (fun x y -> { lo = min x.lo y.lo; hi = max x.hi y.hi }) a b

(** Translate a region by an offset vector; raises [Invalid_argument]
    on a rank mismatch or a bound shifted past the int range. *)
let shift (r : t) (off : int array) : t =
  if rank r <> Array.length off then invalid_arg "Region.shift: rank mismatch";
  let add x o =
    let y = x + o in
    if y < x <> (o < 0) then past_int "shifted bound" else y
  in
  Array.mapi (fun i rg -> { lo = add rg.lo off.(i); hi = add rg.hi off.(i) }) r

let contains_point (r : t) (p : int array) =
  rank r = Array.length p
  && Array.for_all (fun i -> r.(i).lo <= p.(i) && p.(i) <= r.(i).hi)
       (Array.init (rank r) Fun.id)

(** [subset a b] is true when every point of [a] lies in [b]. *)
let subset (a : t) (b : t) =
  is_empty a
  || rank a = rank b
     &&
     let ok = ref true in
     for d = 0 to rank a - 1 do
       if a.(d).lo < b.(d).lo || a.(d).hi > b.(d).hi then ok := false
     done;
     !ok

(** Iterate all points in row-major order. The callback receives a scratch
    buffer that is reused between calls; copy it if you keep it. The
    rank-1/2/3 paths are hoisted into nested [for] loops with bounds read
    once, so low-rank regions pay no generic odometer recursion. *)
let iter (r : t) (f : int array -> unit) =
  if not (is_empty r) then
    match Array.length r with
    | 1 ->
        let p = [| 0 |] in
        for i = r.(0).lo to r.(0).hi do
          p.(0) <- i;
          f p
        done
    | 2 ->
        let lo1 = r.(1).lo and hi1 = r.(1).hi in
        let p = [| 0; 0 |] in
        for i = r.(0).lo to r.(0).hi do
          p.(0) <- i;
          for j = lo1 to hi1 do
            p.(1) <- j;
            f p
          done
        done
    | 3 ->
        let lo1 = r.(1).lo and hi1 = r.(1).hi in
        let lo2 = r.(2).lo and hi2 = r.(2).hi in
        let p = [| 0; 0; 0 |] in
        for i = r.(0).lo to r.(0).hi do
          p.(0) <- i;
          for j = lo1 to hi1 do
            p.(1) <- j;
            for k = lo2 to hi2 do
              p.(2) <- k;
              f p
            done
          done
        done
    | n ->
        (* generic odometer for hypothetical higher ranks *)
        let p = Array.map (fun rg -> rg.lo) r in
        let rec step d =
          if d < 0 then ()
          else if p.(d) < r.(d).hi then begin
            p.(d) <- p.(d) + 1;
            for k = d + 1 to n - 1 do
              p.(k) <- r.(k).lo
            done;
            f p;
            step (n - 1)
          end
          else step (d - 1)
        in
        f p;
        step (n - 1)

(* Bounds: the int form of a region the executors evaluate a statement
   region into, (lo, hi) of dimension [d] at [2d] and [2d+1]. *)

let bounds (r : t) =
  Array.init (2 * Array.length r) (fun i ->
      if i land 1 = 0 then r.(i / 2).lo else r.(i / 2).hi)

let of_bounds (b : int array) : t =
  Array.init (Array.length b / 2) (fun d -> range b.(2 * d) b.((2 * d) + 1))

(* The helpers below run on every kernel dispatch, so they loop by hand
   and allocate nothing. *)

(** Number of points of bounds [b]; 0 when any dimension is empty, -1
    when an extent or the count passes max_int. *)
let bounds_size (b : int array) =
  let n = ref 1 in
  for d = 0 to (Array.length b / 2) - 1 do
    n := times_extent !n b.(2 * d) b.((2 * d) + 1)
  done;
  !n

(** Number of rows of bounds [b]: the product of every extent but the
    innermost (1 for rank 1, 0 when empty). *)
let row_count (b : int array) =
  let n = Array.length b in
  let len = b.(n - 1) - b.(n - 2) + 1 in
  if len <= 0 then 0 else bounds_size b / len

(** [first_row b p] sets the caller's point buffer [p] (one entry per
    dimension) to the start of the first row. *)
let first_row (b : int array) (p : int array) =
  for d = 0 to Array.length p - 1 do
    p.(d) <- b.(2 * d)
  done

(** [next_row b p] advances [p] from one row start to the next in
    row-major order: an odometer over every dimension but the innermost.
    After the last row it wraps to the first. *)
let next_row (b : int array) (p : int array) =
  let d = ref (Array.length p - 2) in
  while !d >= 0 do
    let i = !d in
    if p.(i) < b.((2 * i) + 1) then begin
      p.(i) <- p.(i) + 1;
      d := -1
    end
    else begin
      p.(i) <- b.(2 * i);
      d := i - 1
    end
  done

(** Iterate the region row by row: the callback receives the row's start
    point (innermost coordinate at its [lo]) and the row length. The point
    buffer is reused between calls; copy it if retained. A rank-1 region
    is a single row. *)
let iter_rows (r : t) (f : int array -> int -> unit) =
  let b = bounds r in
  let rows = row_count b in
  if rows > 0 then begin
    let n = Array.length r in
    let len = range_size r.(n - 1) in
    let p = Array.make n 0 in
    first_row b p;
    for _ = 1 to rows do
      f p len;
      next_row b p
    done
  end

let fold (r : t) (f : 'a -> int array -> 'a) (init : 'a) =
  let acc = ref init in
  iter r (fun p -> acc := f !acc p);
  !acc

let to_string (r : t) =
  r
  |> Array.to_list
  |> List.map (fun { lo; hi } -> Printf.sprintf "%d..%d" lo hi)
  |> String.concat ", "
  |> Printf.sprintf "[%s]"
