(** Halo (fringe) exchange arithmetic: which rectangles a processor sends
    to and receives from its neighbors to satisfy a shifted reference.

    A transfer for array [A] with mesh offset [(d0, d1)] fills, on each
    processor, the ghost cells [shift(owned, d) \ owned]. These cells lie
    in the partition boxes of up to three neighbors (e.g. a diagonal shift
    needs a row slab, a column slab and a corner). Symmetrically the
    processor sends the pieces its [-d]-side neighbors need. *)

type piece = {
  partner : int;  (** the other processor *)
  rect : Zpl.Region.t;  (** 2-D rectangle in global coordinates *)
}

let sign v = compare v 0

(** The part of the declared region of [info] owned by [p] under [l]. *)
let owned_of (l : Layout.t) (info : Zpl.Prog.array_info) p : Zpl.Region.t =
  let b = Layout.box l p in
  let decl = info.a_region in
  let two = Zpl.Region.inter [| decl.(0); decl.(1) |] b in
  if info.a_rank = 2 then two else [| two.(0); two.(1); decl.(2) |]

(** The at most three processors [p] exchanges with for offset
    [(d0, d1)], ascending: the [+off]-side neighbors it receives from
    ([sgn = 1]) or the [-off]-side neighbors it sends to ([sgn = -1]) —
    row-side, column-side and diagonal, whichever components are nonzero
    and whichever exist. Distinct deltas reach distinct processors. *)
let partners (l : Layout.t) ~p ~off:(d0, d1) ~sgn : int list =
  let sr = sgn * sign d0 and sc = sgn * sign d1 in
  let r, c = Layout.coords l p in
  let at dr dc =
    if dr = 0 && dc = 0 then -1
    else
      match Layout.proc_at l ~row:(r + dr) ~col:(c + dc) with
      | Some q -> q
      | None -> -1
  in
  let qa = at sr 0 and qb = at 0 sc in
  let qc = if sr <> 0 && sc <> 0 then at sr sc else -1 in
  let lo = min qa (min qb qc) and hi = max qa (max qb qc) in
  let mid = qa + qb + qc - lo - hi in
  let add q acc = if q < 0 then acc else q :: acc in
  add lo (add mid (add hi []))

(** The 2-D rectangle [inter(shift(reader, off), owner)] over dims 0-1
    of two owned regions: the cells of [owner]'s box that the processor
    owning [reader] reads through [off]. Empty when either region is. *)
let exchange_rect ~(reader : Zpl.Region.t) ~(owner : Zpl.Region.t) (d0, d1) :
    Zpl.Region.t =
  let r0 = reader.(0) and r1 = reader.(1) and q0 = owner.(0) and q1 = owner.(1) in
  [| { Zpl.Region.lo = max (r0.lo + d0) q0.lo; hi = min (r0.hi + d0) q0.hi };
     { Zpl.Region.lo = max (r1.lo + d1) q1.lo; hi = min (r1.hi + d1) q1.hi } |]

(** [exchange_rect] for a transfer from [q] to [p] ([sgn = 1], [p]
    receives) or from [p] to [q] ([sgn = -1], [p] sends). *)
let piece_rect ~own_p ~own_q ~off ~sgn =
  if sgn > 0 then exchange_rect ~reader:own_p ~owner:own_q off
  else exchange_rect ~reader:own_q ~owner:own_p off

let pieces (l : Layout.t) (info : Zpl.Prog.array_info) ~p ~off ~sgn =
  let own_p = owned_of l info p in
  List.filter_map
    (fun q ->
      let rect = piece_rect ~own_p ~own_q:(owned_of l info q) ~off ~sgn in
      if Zpl.Region.is_empty rect then None else Some { partner = q; rect })
    (partners l ~p ~off ~sgn)

(** Rectangles [p] must receive for array [info] shifted by [off]:
    [inter(shift(owned, off), partner's owned box)] per neighbor, partners
    ascending. Empty when [p] owns nothing of the array. *)
let recv_pieces l info ~p ~off : piece list = pieces l info ~p ~off ~sgn:1

(** Rectangles [p] must send for array [info] shifted by [off]: the pieces
    each [-off]-side neighbor needs from [p]'s owned box. *)
let send_pieces l info ~p ~off : piece list = pieces l info ~p ~off ~sgn:(-1)

(** Cells a piece moves, accounting for the local (undistributed) third
    dimension of rank-3 arrays. *)
let piece_cells (info : Zpl.Prog.array_info) (pc : piece) =
  let plane = Zpl.Region.size pc.rect in
  if info.a_rank = 2 then plane
  else plane * Zpl.Region.range_size (Zpl.Region.dim info.a_region 2)

(** Extend a 2-D piece rectangle to the array's full rank for packing
    and unpacking. *)
let full_rect (info : Zpl.Prog.array_info) (pc : piece) : Zpl.Region.t =
  if info.a_rank = 2 then pc.rect
  else [| pc.rect.(0); pc.rect.(1); Zpl.Region.dim info.a_region 2 |]

(** One partner's share of a transfer on one processor: the member
    rectangles in canonical order. *)
type partner_pieces = {
  pp_partner : int;
  pp_rects : (int * Zpl.Region.t) list;
      (** (array id, full-rank rect), in member-array order *)
  pp_cells : int;  (** total cells over all member rects *)
}

(** Group the send or receive pieces of a (possibly combined) transfer by
    partner, partners ascending. The rect order within a partner — member
    arrays in [arrays] order, at most one rect per (array, partner) pair
    since distinct neighbor deltas reach distinct processors — is the
    {e canonical message layout}: the sender packs and the receiver
    unpacks staging buffers in exactly this order, so both sides of a
    message agree on every member piece's offset by construction.
    [owned q aid] is processor [q]'s owned region of array [aid]
    (default {!owned_of}); callers that already hold per-rank stores pass
    their owned boxes instead of recomputing them. *)
let partner_sides ?owned (l : Layout.t) (prog : Zpl.Prog.t) ~(arrays : int list)
    ~(off : int * int) ~p ~(dir : [ `Send | `Recv ]) : partner_pieces list =
  let owned =
    match owned with
    | Some f -> f
    | None -> fun q aid -> owned_of l prog.Zpl.Prog.arrays.(aid) q
  in
  let sgn = match dir with `Recv -> 1 | `Send -> -1 in
  let side q =
    let cells = ref 0 in
    let rec member_rects = function
      | [] -> []
      | aid :: rest ->
          let rect =
            piece_rect ~own_p:(owned p aid) ~own_q:(owned q aid) ~off ~sgn
          in
          if Zpl.Region.is_empty rect then member_rects rest
          else begin
            let info = prog.Zpl.Prog.arrays.(aid) in
            let pc = { partner = q; rect } in
            cells := !cells + piece_cells info pc;
            (aid, full_rect info pc) :: member_rects rest
          end
    in
    match member_rects arrays with
    | [] -> None
    | rects -> Some { pp_partner = q; pp_rects = rects; pp_cells = !cells }
  in
  List.filter_map side (partners l ~p ~off ~sgn)
