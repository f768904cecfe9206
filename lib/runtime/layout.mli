(** Block distribution of the global index space over a 2-D virtual
    processor mesh, as in ZPL. The first two dimensions of every array are
    distributed; dimension 2 of rank-3 arrays stays processor-local.
    Alignment means every array uses the same partition, so element (i,j)
    of all arrays lives on the same processor. *)

type t = {
  pr : int;  (** mesh rows *)
  pc : int;  (** mesh columns *)
  space : Zpl.Region.t;  (** 2-D bounding box of all declared regions *)
  row_cuts : (int * int) array;  (** [pr] inclusive dim-0 ranges *)
  col_cuts : (int * int) array;  (** [pc] inclusive dim-1 ranges *)
}

val nprocs : t -> int

(** Mesh coordinates of a rank (row-major). *)
val coords : t -> int -> int * int

(** Rank at mesh coordinates, or [None] outside the mesh (no wraparound). *)
val proc_at : t -> row:int -> col:int -> int option

(** Split the inclusive range [lo..hi] into [n] nearly equal chunks;
    trailing chunks may be empty when [n] exceeds the extent. *)
val split_range : int -> int -> int -> (int * int) array

(** [make ~pr ~pc space] partitions [space]; raises [Invalid_argument] on
    a non-2-D space or an empty mesh. *)
val make : pr:int -> pc:int -> Zpl.Region.t -> t

(** [make] over the program's index space, {!Zpl.Prog.index_space}: the
    hull of the first two dimensions of every declared array region. *)
val for_program : pr:int -> pc:int -> Zpl.Prog.t -> t

(** The 2-D partition box of a processor (its share of the global space,
    before intersecting with any particular array's declared region). *)
val box : t -> int -> Zpl.Region.t

(** Smallest block extent in each mesh dimension; shifts larger than this
    cannot be served by adjacent-neighbor halo exchange. *)
val min_block_extent : t -> int * int

(** Owner of a 2-D point of the global space, if any. *)
val owner : t -> i:int -> j:int -> int option
