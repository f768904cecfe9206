(** Block distribution of the global index space over a 2-D virtual
    processor mesh, as in ZPL: "all arrays are trivially aligned and block
    distributed across a two dimensional virtual processor mesh".

    The first two dimensions of every array are distributed; dimension 2 of
    rank-3 arrays stays processor-local. Alignment means every array uses
    the same partition of the global space, so element (i,j) of all arrays
    lives on the same processor. *)

type t = {
  pr : int;  (** mesh rows *)
  pc : int;  (** mesh columns *)
  space : Zpl.Region.t;  (** 2-D bounding box of all declared regions *)
  row_cuts : (int * int) array;  (** [pr] inclusive dim-0 ranges *)
  col_cuts : (int * int) array;  (** [pc] inclusive dim-1 ranges *)
}

let nprocs (l : t) = l.pr * l.pc

let coords (l : t) p = (p / l.pc, p mod l.pc)

let proc_at (l : t) ~row ~col =
  if row < 0 || row >= l.pr || col < 0 || col >= l.pc then None
  else Some ((row * l.pc) + col)

(** Split the inclusive range [lo..hi] into [n] nearly equal chunks.
    Possibly-empty chunks (when n exceeds the extent) get [lo > hi]. *)
let split_range lo hi n =
  let total = hi - lo + 1 in
  let base = total / n and extra = total mod n in
  Array.init n (fun i ->
      let sz = base + if i < extra then 1 else 0 in
      let start = lo + (i * base) + min i extra in
      (start, start + sz - 1))

let make ~pr ~pc (space : Zpl.Region.t) : t =
  if Zpl.Region.rank space <> 2 then invalid_arg "Layout.make: space must be 2-D";
  if pr <= 0 || pc <= 0 then invalid_arg "Layout.make: empty mesh";
  let d0 = Zpl.Region.dim space 0 and d1 = Zpl.Region.dim space 1 in
  { pr; pc; space;
    row_cuts = split_range d0.lo d0.hi pr;
    col_cuts = split_range d1.lo d1.hi pc }

let for_program ~pr ~pc (p : Zpl.Prog.t) =
  make ~pr ~pc (Zpl.Prog.index_space p.arrays)

(** The 2-D partition box of processor [p] (its share of the global space,
    before intersecting with any particular array's declared region). *)
let box (l : t) p : Zpl.Region.t =
  let r, c = coords l p in
  let rlo, rhi = l.row_cuts.(r) and clo, chi = l.col_cuts.(c) in
  Zpl.Region.make [ (rlo, rhi); (clo, chi) ]

(** Smallest block extent in each mesh dimension; shifts larger than this
    would need data from non-adjacent processors, which the halo exchange
    does not support. *)
let min_block_extent (l : t) : int * int =
  let min_of cuts =
    Array.fold_left (fun m (lo, hi) -> min m (hi - lo + 1)) max_int cuts
  in
  (min_of l.row_cuts, min_of l.col_cuts)

(** Owner of a 2-D point of the global space, if any. *)
let owner (l : t) ~i ~j : int option =
  let find cuts v =
    let n = Array.length cuts in
    let rec go k =
      if k >= n then None
      else
        let lo, hi = cuts.(k) in
        if v >= lo && v <= hi then Some k else go (k + 1)
    in
    go 0
  in
  match (find l.row_cuts i, find l.col_cuts j) with
  | Some r, Some c -> proc_at l ~row:r ~col:c
  | _ -> None
