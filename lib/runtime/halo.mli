(** Halo (fringe) exchange arithmetic: which rectangles a processor sends
    to and receives from its neighbors to satisfy a shifted reference. A
    transfer for array [A] with mesh offset [(d0, d1)] fills, on each
    processor, the ghost cells [shift(owned, d) \ owned], which lie in the
    partition boxes of up to three neighbors (row slab, column slab,
    corner). *)

type piece = {
  partner : int;  (** the other processor *)
  rect : Zpl.Region.t;  (** 2-D rectangle in global coordinates *)
}

(** The part of [info]'s declared region owned by a processor (full rank;
    dimension 2 of rank-3 arrays is kept whole). *)
val owned_of : Layout.t -> Zpl.Prog.array_info -> int -> Zpl.Region.t

(** Rectangles processor [p] must receive for [info] shifted by [off];
    empty at mesh edges and when [p] owns nothing of the array. *)
val recv_pieces :
  Layout.t -> Zpl.Prog.array_info -> p:int -> off:int * int -> piece list

(** Rectangles processor [p] must send — the exact duals of its
    [-off]-side neighbors' receive pieces. *)
val send_pieces :
  Layout.t -> Zpl.Prog.array_info -> p:int -> off:int * int -> piece list

(** One partner's share of a transfer on one processor. *)
type partner_pieces = {
  pp_partner : int;
  pp_rects : (int * Zpl.Region.t) list;
      (** (array id, full-rank rect), in member-array order *)
  pp_cells : int;  (** total cells over all member rects *)
}

(** Group the send or receive pieces of a (possibly combined) transfer by
    partner, partners ascending. The rect order within a partner is the
    canonical message layout: sender and receiver pack/unpack staging
    buffers in this order, so both sides agree on every member piece's
    offset by construction. [owned q aid] gives processor [q]'s owned
    region of array [aid] (default {!owned_of}); a caller holding
    per-rank stores passes their owned boxes rather than recomputing
    them. *)
val partner_sides :
  ?owned:(int -> int -> Zpl.Region.t) ->
  Layout.t ->
  Zpl.Prog.t ->
  arrays:int list ->
  off:int * int ->
  p:int ->
  dir:[ `Send | `Recv ] ->
  partner_pieces list
