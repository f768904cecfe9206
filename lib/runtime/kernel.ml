(** Compilation of per-cell array expressions to closures, and execution of
    whole-array statements and reductions over a region. Shared between the
    parallel simulator (reading local blocks with fringes) and the
    sequential oracle (reading global storage).

    Two execution paths coexist. The per-point path interprets the
    expression tree cell by cell and doubles as the differential-testing
    oracle. The row path compiles the expression once into loops over
    contiguous Bigarray rows; every row kernel performs the exact same
    floating-point operation sequence per cell as the per-point path, so
    the two are bit-identical (see test/test_props.ml). Both take the
    region as the int bounds the executors evaluate it into; the row
    path walks them directly, and only the per-point path builds a
    [Zpl.Region.t].

    Compiled plans are {e store-agnostic}: they capture only layout
    (array ids, flat shifts computed from strides), operator structure
    and constants — never a store's cells, a scalar value, or any
    mutable scratch. Everything mutable lives in a runtime
    {!env}: the executor's stores and scalars, bound to a {!workspace}
    minted from the {!envspec} the compile pass records ({!ws}), and
    passed to every [exec_*] entry. One compiled plan may therefore be
    shared by many concurrent executors (engines minted from one cached
    plan set), each binding its own stores and workspace. *)

module A1 = Bigarray.Array1

type buf = Store.buf

(** Whether the rhs reads the lhs through a nonzero shift — the case where
    in-place evaluation would observe freshly written cells, so the
    assignment must evaluate into a buffer first (array semantics). *)
let needs_buffer (a : Zpl.Prog.assign_a) =
  Zpl.Prog.fold_refs
    (fun found aid off ->
      found || (aid = a.lhs && Array.exists (fun d -> d <> 0) off))
    false a.rhs

(** Run a pre-compiled per-cell function over [region], writing through
    [write]. [buffered] forces evaluation into a temporary first (array
    semantics when the lhs is read through a shift). Returns the number of
    cells updated. *)
let run_region ~(write : int array -> float -> unit) ~(region : Zpl.Region.t)
    ~buffered (f : int array -> float) : int =
  if Zpl.Region.is_empty region then 0
  else begin
    if buffered then begin
      let buf = Array.make (Zpl.Region.size region) 0.0 in
      let k = ref 0 in
      Zpl.Region.iter region (fun p ->
          buf.(!k) <- f p;
          incr k);
      k := 0;
      Zpl.Region.iter region (fun p ->
          write p buf.(!k);
          incr k)
    end
    else Zpl.Region.iter region (fun p -> write p (f p));
    Zpl.Region.size region
  end

(** Fold a pre-compiled per-cell function over [region] with reduction
    operator [op]: the partial (the identity on empty regions). *)
let run_reduce ~(region : Zpl.Region.t) (op : Zpl.Ast.redop)
    (f : int array -> float) : float =
  let acc = ref (Reduce.identity op) in
  Zpl.Region.iter region (fun p -> acc := Reduce.apply op !acc (f p));
  !acc

(* ------------------------------------------------------------------ *)
(* Runtime environment: the store-binding contract                     *)
(*                                                                     *)
(* A compiled plan may capture array ids, flat shifts, operator        *)
(* dispatch and constants. It must NOT capture stores, scalar values,  *)
(* or any mutable scratch: those arrive at execution time inside an    *)
(* [env]. The compile pass allocates workspace slots (row buffers,     *)
(* integer point scratch) from a [ws] builder, numbering restarting at *)
(* every statement: a kernel keeps nothing in its workspace between    *)
(* executions, so statements that never run at once may share slots.   *)
(* [ws_spec] freezes the widest statement's needs into an [envspec],   *)
(* [make_workspace] mints one workspace from it, and [make_env] binds  *)
(* an executor's stores and scalars to a workspace. Executors that may *)
(* run kernels at the same time never share one.                       *)
(* ------------------------------------------------------------------ *)

let empty_buf : buf = A1.create Bigarray.float64 Bigarray.c_layout 0

(** Workspace slot allocator threaded through one compile pass. *)
type ws = {
  wscalars : Values.layout;  (** where each broadcast scalar lives *)
  mutable wbufs : int;  (** row-buffer slots of the current statement *)
  mutable wmaxbufs : int;  (** most row-buffer slots of any statement *)
  mutable wipt : int;  (** 1 + max rank needing integer point scratch *)
}

let make_ws scalars : ws =
  { wscalars = scalars; wbufs = 0; wmaxbufs = 0; wipt = 0 }

(** Start a statement: its slots number from zero again. *)
let ws_stmt (ws : ws) = ws.wbufs <- 0

let ws_buf (ws : ws) : int =
  let id = ws.wbufs in
  ws.wbufs <- id + 1;
  ws.wmaxbufs <- max ws.wmaxbufs ws.wbufs;
  id

let ws_ipt (ws : ws) (rank : int) : unit =
  if rank + 1 > ws.wipt then ws.wipt <- rank + 1

(** Frozen workspace requirements of a compiled plan set. *)
type envspec = { es_bufs : int; es_ipt : int }

let ws_spec (ws : ws) : envspec = { es_bufs = ws.wmaxbufs; es_ipt = ws.wipt }

let join_spec (a : envspec) (b : envspec) : envspec =
  { es_bufs = max a.es_bufs b.es_bufs; es_ipt = max a.es_ipt b.es_ipt }

(** The mutable scratch of a plan set's kernels. *)
type workspace = {
  w_bufs : buf ref array;  (** row buffers, grown on demand *)
  w_ipt : int array array;  (** integer point scratch, indexed by rank *)
  w_row : int array array;
      (** row-start point buffers of the row walkers, indexed by rank
          (1-3); separate from [w_ipt], which per-point closures use
          inside a row *)
}

let make_workspace (spec : envspec) : workspace =
  { w_bufs = Array.init spec.es_bufs (fun _ -> ref empty_buf);
    w_ipt = Array.init spec.es_ipt (fun r -> Array.make r 0);
    w_row = Array.init 4 (fun r -> Array.make r 0) }

let workspace_words (w : workspace) = Obj.reachable_words (Obj.repr w)

(** The runtime environment every [exec_*] entry takes: the executor's
    stores (indexed by array id), its scalar slots, and the fields of
    the workspace the plan's slot ids index into, copied flat so a
    kernel reaches them in one load. *)
type env = {
  e_stores : Store.t array;
  e_slots : Values.slots;
  e_bufs : buf ref array;
  e_ipt : int array array;
  e_row : int array array;
}

let make_env ~(stores : Store.t array) ~(slots : Values.slots)
    (w : workspace) : env =
  { e_stores = stores;
    e_slots = slots;
    e_bufs = w.w_bufs;
    e_ipt = w.w_ipt;
    e_row = w.w_row }

(** The per-point compiler: one closure per expression node, evaluating
    a cell in the tree's own operation order — the reference every row
    kernel matches bit for bit. Stores, scalars and shift scratch are
    resolved through the [env] argument at call time, so the closure is
    store-agnostic and can be cached and shared. *)
let rec compile_env (ws : ws) (e : Zpl.Prog.aexpr) :
    env -> int array -> float =
  match e with
  | Zpl.Prog.AConst c -> fun _ _ -> c
  | Zpl.Prog.AScalar id ->
      let k = Values.slot ws.wscalars id in
      if Values.is_int ws.wscalars id then fun env _ ->
        float_of_int env.e_slots.Values.i.(k)
      else fun env _ -> env.e_slots.Values.f.(k)
  | Zpl.Prog.AIndex d -> fun _ p -> float_of_int p.(d)
  | Zpl.Prog.ARef (aid, off) ->
      if Array.for_all (fun d -> d = 0) off then fun env p ->
        Store.get_unsafe env.e_stores.(aid) p
      else begin
        let n = Array.length off in
        ws_ipt ws n;
        fun env p ->
          let scratch = env.e_ipt.(n) in
          for k = 0 to n - 1 do
            scratch.(k) <- p.(k) + off.(k)
          done;
          Store.get_unsafe env.e_stores.(aid) scratch
      end
  | Zpl.Prog.AArith (op, a, b) -> (
      let fa = compile_env ws a and fb = compile_env ws b in
      match op with
      | `Add -> fun env p -> fa env p +. fb env p
      | `Sub -> fun env p -> fa env p -. fb env p
      | `Mul -> fun env p -> fa env p *. fb env p
      | `Div -> fun env p -> fa env p /. fb env p
      | `Pow -> fun env p -> Float.pow (fa env p) (fb env p))
  | Zpl.Prog.ANeg a ->
      let fa = compile_env ws a in
      fun env p -> -.fa env p
  | Zpl.Prog.ACall (Zpl.Arith.Call1 (u, a)) ->
      let fa = compile_env ws a in
      fun env p -> Zpl.Arith.unary u (fa env p)
  | Zpl.Prog.ACall (Zpl.Arith.Call2 (op, a, b)) ->
      let fa = compile_env ws a and fb = compile_env ws b in
      fun env p -> Zpl.Arith.binary op (fa env p) (fb env p)

(* ------------------------------------------------------------------ *)
(* Row-compiled fast path                                              *)
(*                                                                     *)
(* Array statements spend their lives in the innermost (stride-1)      *)
(* dimension. The row compiler turns an array expression into a        *)
(* [rowsrc] that produces one whole row at a time: each full-rank      *)
(* stencil operand becomes an (array id, flat shift) pair whose        *)
(* per-row base index is computed once, and the per-cell work is a     *)
(* tight [for] loop over [base + k] on the store's flat float64        *)
(* Bigarray — no per-point [int array] allocation, no closure dispatch *)
(* per cell, no boxing. Every expression is built from one             *)
(* composition: refs and row invariants at the leaves, a binary node   *)
(* over two refs or a ref and an invariant as one single-pass loop,    *)
(* a structural square by evaluating its operand once, and any other   *)
(* node by filling one operand's row and combining the other one into  *)
(* it. Each cell gets the per-point path's operations in the per-point *)
(* path's order. The checker makes every read lay along a row, so      *)
(* every expression row-compiles.                                      *)
(*                                                                     *)
(* Shifts are flattened against the compile-time stores' strides; the  *)
(* runtime env must bind stores with the same geometry (the engine     *)
(* compiles against [Store.make_shape] blueprints of the exact layout  *)
(* it mints real stores from).                                         *)
(* ------------------------------------------------------------------ *)

type rowctx = {
  rstore : int -> Store.t;
      (** array id -> storage of the right geometry (shape-only is fine:
          only rank and strides are consulted at compile time, and the
          engine's per-geometry-class sharing relies on that) *)
  rws : ws;  (** workspace slot allocator for this plan set *)
}

(** A value that is the same in every cell of a row. *)
type inv =
  | IConst of float  (** the same value in every cell *)
  | IRow of (env -> int array -> float)  (** one eval per row *)
  | IScalar of int * bool
      (** a scalar broadcast (its slot, and whether that is an int
          slot): read in place from the env's slots once per row, never
          boxed *)

(** How to produce the values of an expression along one row of the
    iteration region. The row is identified by its start point [p0]
    (innermost coordinate at its [lo]) and its length. *)
type rowsrc =
  | RInv of inv  (** row-invariant *)
  | RRef of int * int
      (** full-rank shifted ref: array id and flat shift; flat cell
          [index p0 + shift + k] of the env's store *)
  | RIndexLast  (** the innermost coordinate itself: [p0.(last) + k] *)
  | RFill of (env -> int array -> int -> buf -> int -> unit)
      (** general: fill [dst.(d0 .. d0+len-1)] with the row's values *)

(** Flat base index of the row starting at [p0] read through flat shift
    [dshift]; checks the whole row stays inside the store's flat buffer,
    the safety net under the unchecked row loops (the statement-region
    rule, {!Zpl.Prog.check_region}, keeps every read of a checked
    program inside the allocation). *)
let ref_base (s : Store.t) (dshift : int) (p0 : int array) (len : int) : int =
  let base = Store.index s p0 + dshift in
  if base < 0 || base + len > Store.length s then
    Fmt.invalid_arg "row kernel: shifted read of %s runs outside %s"
      (Store.info s).a_name
      (Zpl.Region.to_string (Store.alloc s));
  base

let ensure : buf ref -> int -> buf = Store.grow_buf

(* Hand-rolled row fill ([Store.blit_rows] is the row copy): [A1.fill]
   dispatches into C, which at our row lengths costs more than the fill
   itself. *)

let[@inline] buf_fill (dst : buf) d0 len v =
  for k = d0 to d0 + len - 1 do
    A1.unsafe_set dst k v
  done

(** The value of [src] for the row at [p0]. Callers inline it, so a
    scalar's slot is read without boxing: [x +. -0.0] is [x] bit for bit
    (negative zero is the additive identity), and makes every arm a
    fresh float, which lets the compiler keep the result unboxed. *)
let[@inline] inv (src : inv) (env : env) (p0 : int array) : float =
  match src with
  | IScalar (id, false) -> env.e_slots.Values.f.(id)
  | IScalar (id, true) -> float_of_int env.e_slots.Values.i.(id)
  | IConst v -> v +. -0.0
  | IRow f -> f env p0 +. -0.0

(** Materialize a row source into [dst.(d0 .. d0+len-1)]. *)
let fill (src : rowsrc) (env : env) (p0 : int array) (len : int) (dst : buf)
    (d0 : int) : unit =
  match src with
  | RInv i -> buf_fill dst d0 len (inv i env p0)
  | RRef (aid, dshift) ->
      let s = env.e_stores.(aid) in
      let base = ref_base s dshift p0 len in
      Store.blit_rows (Store.read_only s) base dst d0 len
  | RIndexLast ->
      let x0 = p0.(Array.length p0 - 1) in
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (float_of_int (x0 + k))
      done
  | RFill g -> g env p0 len dst d0

(** A row reduced to either a per-row constant or a contiguous slice. *)
type slice = SConst of float | SVec of buf * int

let slice_of (src : rowsrc) (env : env) (scratch : buf ref) p0 len : slice =
  match src with
  | RInv i -> SConst (inv i env p0)
  | RRef (aid, dshift) ->
      let s = env.e_stores.(aid) in
      SVec (Store.read_only s, ref_base s dshift p0 len)
  | RIndexLast | RFill _ ->
      let b = ensure scratch len in
      fill src env p0 len b 0;
      SVec (b, 0)

(* Monomorphic combine loops: one [match] per row, zero dispatch per cell.
   Index ranges are validated by the callers ([ref_base] for slices, the
   region-subset check in {!run_region_rows} for destinations). Each is
   inlined, so a row-invariant [v] reaches its loop unboxed; [dst] may be
   one of the sources at the same offset (each cell is read before it is
   written). *)

(** [dst.(d0+k) <- a.(ia+k) op b.(ib+k)] over the row. *)
let[@inline] map_vv (op : Zpl.Arith.arith) (a : buf) ia (b : buf) ib (dst : buf)
    d0 len =
  match op with
  | `Add ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get a (ia + k) +. A1.unsafe_get b (ib + k))
      done
  | `Sub ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get a (ia + k) -. A1.unsafe_get b (ib + k))
      done
  | `Mul ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get a (ia + k) *. A1.unsafe_get b (ib + k))
      done
  | `Div ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get a (ia + k) /. A1.unsafe_get b (ib + k))
      done
  | `Pow ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (Float.pow (A1.unsafe_get a (ia + k)) (A1.unsafe_get b (ib + k)))
      done

(** [dst.(d0+k) <- a.(ia+k) op v] over the row. The cell is bound
    before [+.] and [*.]: given a load on the left and a register on the
    right of a commutative operator, the amd64 backend swaps them to use
    a memory operand, and when both are NaN the result then carries
    [v]'s payload, not the cell's as on the per-point path. *)
let[@inline] map_vs (op : Zpl.Arith.arith) (a : buf) ia v (dst : buf) d0 len =
  match op with
  | `Add ->
      for k = 0 to len - 1 do
        let x = A1.unsafe_get a (ia + k) in
        A1.unsafe_set dst (d0 + k) (x +. v)
      done
  | `Sub ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) -. v)
      done
  | `Mul ->
      for k = 0 to len - 1 do
        let x = A1.unsafe_get a (ia + k) in
        A1.unsafe_set dst (d0 + k) (x *. v)
      done
  | `Div ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) /. v)
      done
  | `Pow ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (Float.pow (A1.unsafe_get a (ia + k)) v)
      done

(** [dst.(d0+k) <- v op b.(ib+k)] over the row. *)
let[@inline] map_sv (op : Zpl.Arith.arith) v (b : buf) ib (dst : buf) d0 len =
  match op with
  | `Add ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (v +. A1.unsafe_get b (ib + k))
      done
  | `Sub ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (v -. A1.unsafe_get b (ib + k))
      done
  | `Mul ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (v *. A1.unsafe_get b (ib + k))
      done
  | `Div ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (v /. A1.unsafe_get b (ib + k))
      done
  | `Pow ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (Float.pow v (A1.unsafe_get b (ib + k)))
      done

(* --- single-pass binary kernels over plain refs --- *)

(** [dst.(d0+k) <- a.(ia+k) op b.(ib+k)] in one pass, no intermediate
    row. Same per-cell operation as fill-then-combine, one memory
    traversal instead of two. *)
let fill_vv2 (op : Zpl.Arith.arith) ((aa, da) : int * int)
    ((ab, db) : int * int) : rowsrc =
  RFill
    (fun env p0 len dst d0 ->
      let sa = env.e_stores.(aa) and sb = env.e_stores.(ab) in
      let ia = ref_base sa da p0 len and ib = ref_base sb db p0 len in
      map_vv op (Store.read_only sa) ia (Store.read_only sb) ib dst d0 len)

(** [dst.(d0+k) <- a.(ia+k) op v] in one pass, [v] row-invariant. *)
let fill_vs2 (op : Zpl.Arith.arith) ((aa, da) : int * int) (rv : inv) :
    rowsrc =
  RFill
    (fun env p0 len dst d0 ->
      let sa = env.e_stores.(aa) in
      let ia = ref_base sa da p0 len in
      map_vs op (Store.read_only sa) ia (inv rv env p0) dst d0 len)

(** [dst.(d0+k) <- v op b.(ib+k)] in one pass. *)
let fill_sv2 (op : Zpl.Arith.arith) (rv : inv) ((ab, db) : int * int) :
    rowsrc =
  RFill
    (fun env p0 len dst d0 ->
      let sb = env.e_stores.(ab) in
      let ib = ref_base sb db p0 len in
      map_sv op (inv rv env p0) (Store.read_only sb) ib dst d0 len)

(** [compile_row rc ~rank e] row-compiles [e] for iteration regions of
    rank [rank]. The checker guarantees what it relies on: every read
    has rank [rank], every [IndexD] has D <= [rank], and a store's
    innermost stride is 1, so every read lays along a row. *)
let compile_row (rc : rowctx) ~(rank : int) (e : Zpl.Prog.aexpr) : rowsrc =
  let rec go (e : Zpl.Prog.aexpr) : rowsrc =
    match e with
    | Zpl.Prog.AConst c -> RInv (IConst c)
    | Zpl.Prog.AScalar id ->
        let l = rc.rws.wscalars in
        RInv (IScalar (Values.slot l id, Values.is_int l id))
    | Zpl.Prog.AIndex d ->
        if d = rank - 1 then RIndexLast
        else RInv (IRow (fun _ p0 -> float_of_int p0.(d)))
    | Zpl.Prog.ARef (aid, off) ->
        (* the shift collapsed to one flat offset against the compile-time
           store's strides; the runtime env binds stores of the same
           geometry *)
        let s = rc.rstore aid and dshift = ref 0 in
        Array.iteri (fun d o -> dshift := !dshift + (o * Store.stride s d)) off;
        RRef (aid, !dshift)
    | Zpl.Prog.AArith (op, a, b) -> (
        (* a structural square, [(U@east + U) * (U@east + U)]: evaluate
           the operand once and square in place — both factors read the
           same value, so one evaluation is exact *)
        match
          if op = `Mul && Stdlib.compare a b = 0 then Some (go a)
          else None
        with
        | Some (RInv (IConst x)) -> RInv (IConst (x *. x))
        | Some (RInv ra) ->
            RInv
              (IRow
                 (fun env p0 ->
                   let v = inv ra env p0 in
                   v *. v))
        | Some (RRef (aa, da)) -> fill_vv2 `Mul (aa, da) (aa, da)
        | Some ra ->
            RFill
              (fun env p0 len dst d0 ->
                fill ra env p0 len dst d0;
                for k = d0 to d0 + len - 1 do
                  let v = A1.unsafe_get dst k in
                  A1.unsafe_set dst k (v *. v)
                done)
        | None -> (
            let ra = go a and rb = go b in
            match (ra, rb) with
            | RInv (IConst x), RInv (IConst y) ->
                RInv (IConst (Zpl.Arith.float_arith op x y))
            | RInv ia, RInv ib ->
                RInv
                  (IRow
                     (fun env p0 ->
                       Zpl.Arith.float_arith op (inv ia env p0) (inv ib env p0)))
            | RRef (aa, da), RRef (ab, db) -> fill_vv2 op (aa, da) (ab, db)
            | RRef (aa, da), RInv ib -> fill_vs2 op (aa, da) ib
            | RInv ia, RRef (ab, db) -> fill_sv2 op ia (ab, db)
            | RRef (aa, da), _ ->
                (* evaluate the composite right side into dst, then fold
                   in the left ref slice reversed — no scratch row *)
                RFill
                  (fun env p0 len dst d0 ->
                    fill rb env p0 len dst d0;
                    let s = env.e_stores.(aa) in
                    let ia = ref_base s da p0 len in
                    map_vv op (Store.read_only s) ia dst d0 dst d0 len)
            | _, RInv ib ->
                RFill
                  (fun env p0 len dst d0 ->
                    fill ra env p0 len dst d0;
                    map_vs op dst d0 (inv ib env p0) dst d0 len)
            | RInv ia, _ ->
                RFill
                  (fun env p0 len dst d0 ->
                    fill rb env p0 len dst d0;
                    map_sv op (inv ia env p0) dst d0 dst d0 len)
            | _, RRef (ab, db) ->
                RFill
                  (fun env p0 len dst d0 ->
                    fill ra env p0 len dst d0;
                    let s = env.e_stores.(ab) in
                    let ib = ref_base s db p0 len in
                    map_vv op dst d0 (Store.read_only s) ib dst d0 len)
            | _, _ ->
                let slot = ws_buf rc.rws in
                RFill
                  (fun env p0 len dst d0 ->
                    fill ra env p0 len dst d0;
                    match slice_of rb env env.e_bufs.(slot) p0 len with
                    | SConst v -> map_vs op dst d0 v dst d0 len
                    | SVec (src, s0) -> map_vv op dst d0 src s0 dst d0 len)))
    | Zpl.Prog.ANeg a -> (
        match go a with
        | RInv (IConst v) -> RInv (IConst (-.v))
        | RInv ia -> RInv (IRow (fun env p0 -> -.inv ia env p0))
        | ra ->
            RFill
              (fun env p0 len dst d0 ->
                fill ra env p0 len dst d0;
                for k = d0 to d0 + len - 1 do
                  A1.unsafe_set dst k (-.A1.unsafe_get dst k)
                done))
    | Zpl.Prog.ACall (Zpl.Arith.Call1 (u, a)) -> (
        let g = Zpl.Arith.unary u in
        match go a with
        | RInv (IConst v) -> RInv (IConst (g v))
        | RInv ia -> RInv (IRow (fun env p0 -> g (inv ia env p0)))
        | ra ->
            let apply =
              (* keep the hottest intrinsics call-free in the loop *)
              match u with
              | Zpl.Arith.Abs ->
                  fun (dst : buf) d0 len ->
                    for k = d0 to d0 + len - 1 do
                      A1.unsafe_set dst k (Float.abs (A1.unsafe_get dst k))
                    done
              | Zpl.Arith.Sqrt ->
                  fun dst d0 len ->
                    for k = d0 to d0 + len - 1 do
                      A1.unsafe_set dst k (sqrt (A1.unsafe_get dst k))
                    done
              | _ ->
                  fun dst d0 len ->
                    for k = d0 to d0 + len - 1 do
                      A1.unsafe_set dst k (g (A1.unsafe_get dst k))
                    done
            in
            RFill
              (fun env p0 len dst d0 ->
                fill ra env p0 len dst d0;
                apply dst d0 len))
    | Zpl.Prog.ACall (Zpl.Arith.Call2 (op, a, b)) -> (
        let g = Zpl.Arith.binary op in
        let ra = go a and rb = go b in
        match (ra, rb) with
        | RInv (IConst x), RInv (IConst y) -> RInv (IConst (g x y))
        | RInv ia, RInv ib ->
            RInv (IRow (fun env p0 -> g (inv ia env p0) (inv ib env p0)))
        | _ ->
            let slot = ws_buf rc.rws in
            RFill
              (fun env p0 len dst d0 ->
                fill ra env p0 len dst d0;
                match slice_of rb env env.e_bufs.(slot) p0 len with
                | SConst v ->
                    for k = d0 to d0 + len - 1 do
                      A1.unsafe_set dst k (g (A1.unsafe_get dst k) v)
                    done
                | SVec (src, s0) ->
                    for k = 0 to len - 1 do
                      A1.unsafe_set dst (d0 + k)
                        (g
                           (A1.unsafe_get dst (d0 + k))
                           (A1.unsafe_get src (s0 + k)))
                    done))
  in
  go e

(** How the row path may write the lhs. *)
type write_mode =
  | WDirect
      (** rhs never reads the lhs: rows are written straight into storage *)
  | WRowBuffer
      (** rhs reads the lhs at zero shift only: each row evaluates into a
          scratch row first, then blits (per-point order reads the old
          value of exactly the cell being written) *)
  | WFullBuffer
      (** rhs reads the lhs through a nonzero shift: the whole region
          evaluates into a buffer first (array semantics) *)

let write_mode (a : Zpl.Prog.assign_a) : write_mode =
  if needs_buffer a then WFullBuffer
  else if List.mem a.lhs (Zpl.Prog.arrays_read a.rhs) then WRowBuffer
  else WDirect

(** Run a row-compiled source over the region with bounds [bounds] (see
    {!Zpl.Region.row_count}), writing the rows of [lhs]. [slot] indexes
    the env row buffer the buffered modes stage through (ignored by
    [WDirect]). Returns the number of cells updated. Rows are walked
    with {!Zpl.Region.first_row}/[next_row] over the env's row-start
    buffer: no closure, no point array. *)
let run_region_rows (env : env) ~(lhs : Store.t) ~(bounds : int array)
    ~(mode : write_mode) ~(slot : int) (src : rowsrc) : int =
  let rows = Zpl.Region.row_count bounds in
  if rows = 0 then 0
  else begin
    let n = Array.length bounds / 2 in
    if not (Zpl.Prog.within bounds n Zpl.Prog.no_shift (Store.alloc lhs)) then
      Fmt.invalid_arg "row kernel: write region %s outside allocated %s of %s"
        (Zpl.Region.to_string (Zpl.Region.of_bounds bounds))
        (Zpl.Region.to_string (Store.alloc lhs))
        (Store.info lhs).a_name;
    let len = bounds.((2 * n) - 1) - bounds.((2 * n) - 2) + 1 in
    let p0 = env.e_row.(n) in
    let data = Store.unsafe_data lhs in
    Zpl.Region.first_row bounds p0;
    (match mode with
    | WDirect ->
        for _ = 1 to rows do
          fill src env p0 len data (Store.index lhs p0);
          Zpl.Region.next_row bounds p0
        done
    | WRowBuffer ->
        let b = ensure env.e_bufs.(slot) len in
        for _ = 1 to rows do
          fill src env p0 len b 0;
          Store.blit_rows b 0 data (Store.index lhs p0) len;
          Zpl.Region.next_row bounds p0
        done
    | WFullBuffer ->
        let buf = ensure env.e_bufs.(slot) (rows * len) in
        for r = 0 to rows - 1 do
          fill src env p0 len buf (r * len);
          Zpl.Region.next_row bounds p0
        done;
        Zpl.Region.first_row bounds p0;
        for r = 0 to rows - 1 do
          Store.blit_rows buf (r * len) data (Store.index lhs p0) len;
          Zpl.Region.next_row bounds p0
        done);
    rows * len
  end

(** Fold a row-compiled source over the region with bounds [b] in
    row-major order — the same per-cell operation sequence as
    {!run_reduce}, so partials are bit-identical to the per-point path.
    Returns the partial (the identity on an empty region). Like
    {!run_region_rows} it walks rows without a closure, and reads each
    row in place from its store or through the [slot] scratch row,
    without building a slice. *)
let fold_rows (env : env) ~(slot : int) (op : Zpl.Ast.redop) (src : rowsrc)
    (b : int array) : float =
  let acc = ref (Reduce.identity op) in
  let rows = Zpl.Region.row_count b in
  if rows > 0 then begin
    let n = Array.length b / 2 in
    let len = b.((2 * n) - 1) - b.((2 * n) - 2) + 1 in
    let p0 = env.e_row.(n) in
    let scratch = env.e_bufs.(slot) in
    Zpl.Region.first_row b p0;
    for _ = 1 to rows do
      let data =
        match src with
        | RRef (aid, _) -> Store.read_only env.e_stores.(aid)
        | RInv _ | RIndexLast | RFill _ ->
            let buf = ensure scratch len in
            fill src env p0 len buf 0;
            buf
      in
      let s0 =
        match src with
        | RRef (aid, dshift) -> ref_base env.e_stores.(aid) dshift p0 len
        | _ -> 0
      in
      let a = ref !acc in
      (match op with
      | Zpl.Ast.RSum ->
          for k = s0 to s0 + len - 1 do
            a := !a +. A1.unsafe_get data k
          done
      | Zpl.Ast.RProd ->
          for k = s0 to s0 + len - 1 do
            a := !a *. A1.unsafe_get data k
          done
      | Zpl.Ast.RMax ->
          for k = s0 to s0 + len - 1 do
            a := Float.max !a (A1.unsafe_get data k)
          done
      | Zpl.Ast.RMin ->
          for k = s0 to s0 + len - 1 do
            a := Float.min !a (A1.unsafe_get data k)
          done);
      acc := !a;
      Zpl.Region.next_row b p0
    done
  end;
  !acc

(* ------------------------------------------------------------------ *)
(* Execution plans: the row path, or the per-point one on request      *)
(* ------------------------------------------------------------------ *)

type plan =
  | PRow of write_mode * int * rowsrc
      (** mode, staging-buffer slot (-1 when [WDirect] needs none), src *)
  | PPoint of bool * (env -> int array -> float)
      (** buffered flag, per-cell fn *)

(** Compile an assignment into an execution plan. [row:false] forces the
    per-point path (used by differential tests and the benchmark
    harness). *)
let plan_assign ?(row = true) (rc : rowctx) (a : Zpl.Prog.assign_a) : plan =
  Values.check_dregion rc.rws.wscalars a.region;
  ws_stmt rc.rws;
  let rank = Array.length a.region in
  if row then begin
    let src = compile_row rc ~rank a.rhs and mode = write_mode a in
    let slot = match mode with WDirect -> -1 | _ -> ws_buf rc.rws in
    PRow (mode, slot, src)
  end
  else PPoint (needs_buffer a, compile_env rc.rws a.rhs)

(** Execute a plan over the region with bounds [bounds] (inside [lhs]'s
    owned box). Returns the number of cells updated. *)
let exec_plan (plan : plan) ~(env : env) ~(lhs : Store.t)
    ~(bounds : int array) : int =
  match plan with
  | PRow (mode, slot, src) -> run_region_rows env ~lhs ~bounds ~mode ~slot src
  | PPoint (buffered, f) ->
      run_region
        ~write:(fun p v -> Store.set_unsafe lhs p v)
        ~region:(Zpl.Region.of_bounds bounds) ~buffered
        (fun p -> f env p)

type rplan =
  | RowRed of int * rowsrc  (** scratch slot for non-slice sources *)
  | PointRed of (env -> int array -> float)

let plan_reduce ?(row = true) (rc : rowctx) (r : Zpl.Prog.reduce_s) : rplan =
  Values.check_dregion rc.rws.wscalars r.r_region;
  ws_stmt rc.rws;
  let rank = Array.length r.r_region in
  if row then
    let src = compile_row rc ~rank r.r_rhs in
    RowRed (ws_buf rc.rws, src)
  else PointRed (compile_env rc.rws r.r_rhs)

(** Local partial of a reduction plan over the region with bounds
    [bounds]; it reduces [Zpl.Region.bounds_size bounds] cells. *)
let exec_rplan (plan : rplan) ~(env : env) ~(bounds : int array)
    (op : Zpl.Ast.redop) : float =
  match plan with
  | RowRed (slot, src) -> fold_rows env ~slot op src bounds
  | PointRed f ->
      run_reduce ~region:(Zpl.Region.of_bounds bounds) op (fun p -> f env p)
