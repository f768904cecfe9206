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
    and coefficient structure — never a store's cells, a scalar value,
    or any mutable scratch. Everything mutable lives in a runtime
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
(* dispatch and coefficient structure. It must NOT capture stores,     *)
(* scalar values, or any mutable scratch: those arrive at execution    *)
(* time inside an [env]. The compile pass allocates workspace slots    *)
(* (row buffers, chain workspaces, integer point scratch) from a [ws]  *)
(* builder, numbering restarting at every statement: a kernel keeps    *)
(* nothing in its workspace between executions, so statements that     *)
(* never run at once may share slots. [ws_spec] freezes the widest     *)
(* statement's needs into an [envspec], [make_workspace] mints one     *)
(* workspace from it, and [make_env] binds an executor's stores and    *)
(* scalars to a workspace. Executors that may run kernels at the same  *)
(* time never share one.                                               *)
(* ------------------------------------------------------------------ *)

let empty_buf : buf = A1.create Bigarray.float64 Bigarray.c_layout 0

(** Workspace slot allocator threaded through one compile pass. *)
type ws = {
  wscalars : Values.layout;  (** where each broadcast scalar lives *)
  mutable wbufs : int;  (** row-buffer slots of the current statement *)
  mutable wmaxbufs : int;  (** most row-buffer slots of any statement *)
  mutable wnchains : int;  (** chain slots of the current statement *)
  mutable wchains : int array;  (** per chain slot: widest chain *)
  mutable wipt : int;  (** 1 + max rank needing integer point scratch *)
}

let make_ws scalars : ws =
  { wscalars = scalars; wbufs = 0; wmaxbufs = 0; wnchains = 0;
    wchains = [||]; wipt = 0 }

(** Start a statement: its slots number from zero again. *)
let ws_stmt (ws : ws) =
  ws.wbufs <- 0;
  ws.wnchains <- 0

let ws_buf (ws : ws) : int =
  let id = ws.wbufs in
  ws.wbufs <- id + 1;
  ws.wmaxbufs <- max ws.wmaxbufs ws.wbufs;
  id

let ws_chain (ws : ws) (n : int) : int =
  let id = ws.wnchains in
  ws.wnchains <- id + 1;
  if id = Array.length ws.wchains then
    ws.wchains <- Array.append ws.wchains [| n |]
  else ws.wchains.(id) <- max ws.wchains.(id) n;
  id

let ws_ipt (ws : ws) (rank : int) : unit =
  if rank + 1 > ws.wipt then ws.wipt <- rank + 1

(** Frozen workspace requirements of a compiled plan set. *)
type envspec = { es_bufs : int; es_chains : int array; es_ipt : int }

let ws_spec (ws : ws) : envspec =
  { es_bufs = ws.wmaxbufs; es_chains = Array.copy ws.wchains; es_ipt = ws.wipt }

let join_spec (a : envspec) (b : envspec) : envspec =
  let na = Array.length a.es_chains and nb = Array.length b.es_chains in
  let width s i = if i < Array.length s.es_chains then s.es_chains.(i) else 0 in
  { es_bufs = max a.es_bufs b.es_bufs;
    es_chains = Array.init (max na nb) (fun i -> max (width a i) (width b i));
    es_ipt = max a.es_ipt b.es_ipt }

(** Per-chain-kernel workspace: resolved term buffers, per-row base
    indices and coefficient values, refilled on every row. *)
type chain_ws = {
  cw_datas : buf array;
  cw_bases : int array;
  cw_cvals : float array;
}

(** The mutable scratch of a plan set's kernels. *)
type workspace = {
  w_bufs : buf ref array;  (** row buffers, grown on demand *)
  w_chains : chain_ws array;
  w_ipt : int array array;  (** integer point scratch, indexed by rank *)
  w_row : int array array;
      (** row-start point buffers of the row walkers, indexed by rank
          (1-3); separate from [w_ipt], which per-point closures use
          inside a row *)
}

let make_workspace (spec : envspec) : workspace =
  { w_bufs = Array.init spec.es_bufs (fun _ -> ref empty_buf);
    w_chains =
      Array.map
        (fun n ->
          { cw_datas = Array.make n empty_buf;
            cw_bases = Array.make n 0;
            cw_cvals = Array.make n 1.0 })
        spec.es_chains;
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
  e_chains : chain_ws array;
  e_ipt : int array array;
  e_row : int array array;
}

let make_env ~(stores : Store.t array) ~(slots : Values.slots)
    (w : workspace) : env =
  { e_stores = stores;
    e_slots = slots;
    e_bufs = w.w_bufs;
    e_chains = w.w_chains;
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
(* per cell, no boxing. Binary nodes over plain refs compile to        *)
(* single-pass loops, and +/- chains of refs (the 4-point stencil      *)
(* averages of TOMCATV, with an optional scalar factor) collapse to    *)
(* one loop with n reads and one write per cell. The checker makes     *)
(* every read lay along a row, so every expression row-compiles.       *)
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

(** [dst.(d0+k) <- a.(ia+k) op v] over the row. *)
let[@inline] map_vs (op : Zpl.Arith.arith) (a : buf) ia v (dst : buf) d0 len =
  match op with
  | `Add ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) +. v)
      done
  | `Sub ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) -. v)
      done
  | `Mul ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) *. v)
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

(** [dst.(d0+k) <- (a*b) op (c*d)] in one pass — the shape of the
    metric-coefficient statements ([AA := 0.25*(XY*XY + YY*YY)] and
    friends), which would otherwise cost two product passes, a scratch
    row and a combine. *)
let fill_prodsum2 (op : [ `Add | `Sub ]) (aa, da) (ab, db) (ac, dc) (ad, dd) :
    rowsrc =
  RFill
    (fun env p0 len dst d0 ->
      let sa = env.e_stores.(aa)
      and sb = env.e_stores.(ab)
      and sc = env.e_stores.(ac)
      and sd = env.e_stores.(ad) in
      let ia = ref_base sa da p0 len
      and ib = ref_base sb db p0 len
      and ic = ref_base sc dc p0 len
      and id = ref_base sd dd p0 len in
      let a = Store.read_only sa
      and b = Store.read_only sb
      and c = Store.read_only sc
      and d = Store.read_only sd in
      match op with
      | `Add ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((A1.unsafe_get a (ia + k) *. A1.unsafe_get b (ib + k))
              +. (A1.unsafe_get c (ic + k) *. A1.unsafe_get d (id + k)))
          done
      | `Sub ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((A1.unsafe_get a (ia + k) *. A1.unsafe_get b (ib + k))
              -. (A1.unsafe_get c (ic + k) *. A1.unsafe_get d (id + k)))
          done)

(** [dst.(d0+k) <- a op (c*d)] in one pass — the tridiagonal-solver
    numerator shape, [RX + AA * DX@north]. *)
let fill_refprod (op : [ `Add | `Sub ]) (aa, da) (ac, dc) (ad, dd) : rowsrc =
  RFill
    (fun env p0 len dst d0 ->
      let sa = env.e_stores.(aa)
      and sc = env.e_stores.(ac)
      and sd = env.e_stores.(ad) in
      let ia = ref_base sa da p0 len
      and ic = ref_base sc dc p0 len
      and id = ref_base sd dd p0 len in
      let a = Store.read_only sa
      and c = Store.read_only sc
      and d = Store.read_only sd in
      match op with
      | `Add ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (A1.unsafe_get a (ia + k)
              +. (A1.unsafe_get c (ic + k) *. A1.unsafe_get d (id + k)))
          done
      | `Sub ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (A1.unsafe_get a (ia + k)
              -. (A1.unsafe_get c (ic + k) *. A1.unsafe_get d (id + k)))
          done)

(* --- single-pass +/- chains of plain refs --- *)

(** How an optional outer scalar wraps a chain: applied last per cell,
    with the scalar on the recorded side — the same left-associated
    order the per-point evaluator uses. *)
type scale_kind =
  | KNone
  | KLeft of Zpl.Arith.arith * inv  (** [s op chain] *)
  | KRight of Zpl.Arith.arith * inv  (** [chain op s] *)

(** One chain term: a full-rank ref (array id and flat shift) with an
    optional row-invariant multiplicative coefficient on its left,
    [c * A@d]. *)
type cterm = {
  t_ref : int * int;
  t_coeff : inv option;
}

(** A left-associated +/- chain of (optionally scaled) full-rank refs,
    [((c0*t0 ± c1*t1) ± c2*t2) ± ...], evaluated in one loop: n reads,
    n multiplies and one write per cell, where the multi-pass build-up
    would touch memory 2(n-1)+1 times. [sub.(i)] records whether term
    [i+1] is subtracted.

    Coefficient-less terms run with coefficient 1.0: [1.0 *. x] is
    bit-identical to [x] for every representable value (exact for all
    numerics including signed zeros and infinities; quiet NaNs pass
    through multiplication unchanged), so results still match the
    per-point evaluator bitwise.

    The loop shape is picked here, at row-compile time — the common
    arities get fully monomorphic bodies, because a per-cell sign test
    or term loop costs ~3x on the stencil chains this exists for. The
    outer scalar factor is applied as a second in-cache pass over the
    row; per-cell value and order of operations are exactly those of
    the per-point evaluator.

    The resolved data buffers, bases and coefficient values live in an
    env-owned {!chain_ws} (one per chain slot, allocated by the compile
    pass), refilled on every row — so the compiled chain itself holds no
    mutable state and can be shared across concurrent executors. *)
let fill_chain (ws : ws) (terms : cterm array) (sub : bool array)
    (kind : scale_kind) : rowsrc =
  let n = Array.length terms in
  let slot = ws_chain ws n in
  let generic (cw : chain_ws) (dst : buf) d0 len =
    let datas = cw.cw_datas and bases = cw.cw_bases and cvals = cw.cw_cvals in
    for k = 0 to len - 1 do
      let v =
        ref
          (Array.unsafe_get cvals 0
          *. A1.unsafe_get (Array.unsafe_get datas 0)
               (Array.unsafe_get bases 0 + k))
      in
      for t = 1 to n - 1 do
        let x =
          Array.unsafe_get cvals t
          *. A1.unsafe_get (Array.unsafe_get datas t)
               (Array.unsafe_get bases t + k)
        in
        v := (if Array.unsafe_get sub (t - 1) then !v -. x else !v +. x)
      done;
      A1.unsafe_set dst (d0 + k) !v
    done
  in
  let all_add = Array.for_all not sub in
  let core : chain_ws -> buf -> int -> int -> unit =
    match n with
    | 2 ->
        if sub.(0) then fun cw dst d0 len ->
          let a = cw.cw_datas.(0) and b = cw.cw_datas.(1) in
          let ia = cw.cw_bases.(0) and ib = cw.cw_bases.(1) in
          let ca = cw.cw_cvals.(0) and cb = cw.cw_cvals.(1) in
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((ca *. A1.unsafe_get a (ia + k))
              -. (cb *. A1.unsafe_get b (ib + k)))
          done
        else fun cw dst d0 len ->
          let a = cw.cw_datas.(0) and b = cw.cw_datas.(1) in
          let ia = cw.cw_bases.(0) and ib = cw.cw_bases.(1) in
          let ca = cw.cw_cvals.(0) and cb = cw.cw_cvals.(1) in
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((ca *. A1.unsafe_get a (ia + k))
              +. (cb *. A1.unsafe_get b (ib + k)))
          done
    | 3 ->
        let s1 = sub.(0) and s2 = sub.(1) in
        fun cw dst d0 len ->
          let a = cw.cw_datas.(0)
          and b = cw.cw_datas.(1)
          and c = cw.cw_datas.(2) in
          let ia = cw.cw_bases.(0)
          and ib = cw.cw_bases.(1)
          and ic = cw.cw_bases.(2) in
          let ca = cw.cw_cvals.(0)
          and cb = cw.cw_cvals.(1)
          and cc = cw.cw_cvals.(2) in
          if (not s1) && not s2 then
            for k = 0 to len - 1 do
              A1.unsafe_set dst (d0 + k)
                ((ca *. A1.unsafe_get a (ia + k))
                +. (cb *. A1.unsafe_get b (ib + k))
                +. (cc *. A1.unsafe_get c (ic + k)))
            done
          else if (not s1) && s2 then
            for k = 0 to len - 1 do
              A1.unsafe_set dst (d0 + k)
                ((ca *. A1.unsafe_get a (ia + k))
                +. (cb *. A1.unsafe_get b (ib + k))
                -. (cc *. A1.unsafe_get c (ic + k)))
            done
          else if s1 && not s2 then
            for k = 0 to len - 1 do
              A1.unsafe_set dst (d0 + k)
                ((ca *. A1.unsafe_get a (ia + k))
                -. (cb *. A1.unsafe_get b (ib + k))
                +. (cc *. A1.unsafe_get c (ic + k)))
            done
          else
            for k = 0 to len - 1 do
              A1.unsafe_set dst (d0 + k)
                ((ca *. A1.unsafe_get a (ia + k))
                -. (cb *. A1.unsafe_get b (ib + k))
                -. (cc *. A1.unsafe_get c (ic + k)))
            done
    | 4 when all_add ->
        fun cw dst d0 len ->
          let a = cw.cw_datas.(0)
          and b = cw.cw_datas.(1)
          and c = cw.cw_datas.(2)
          and d = cw.cw_datas.(3) in
          let ia = cw.cw_bases.(0)
          and ib = cw.cw_bases.(1)
          and ic = cw.cw_bases.(2)
          and id = cw.cw_bases.(3) in
          let ca = cw.cw_cvals.(0)
          and cb = cw.cw_cvals.(1)
          and cc = cw.cw_cvals.(2)
          and cd = cw.cw_cvals.(3) in
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((ca *. A1.unsafe_get a (ia + k))
              +. (cb *. A1.unsafe_get b (ib + k))
              +. (cc *. A1.unsafe_get c (ic + k))
              +. (cd *. A1.unsafe_get d (id + k)))
          done
    | 4 ->
        (* mixed signs (the corner stencils, [X@se - X@ne - X@sw + X@nw]):
           straight-line body with three loop-invariant, predictable
           branches — still far from the generic inner term loop *)
        let s1 = sub.(0) and s2 = sub.(1) and s3 = sub.(2) in
        fun cw dst d0 len ->
          let a = cw.cw_datas.(0)
          and b = cw.cw_datas.(1)
          and c = cw.cw_datas.(2)
          and d = cw.cw_datas.(3) in
          let ia = cw.cw_bases.(0)
          and ib = cw.cw_bases.(1)
          and ic = cw.cw_bases.(2)
          and id = cw.cw_bases.(3) in
          let ca = cw.cw_cvals.(0)
          and cb = cw.cw_cvals.(1)
          and cc = cw.cw_cvals.(2)
          and cd = cw.cw_cvals.(3) in
          for k = 0 to len - 1 do
            let t0 = ca *. A1.unsafe_get a (ia + k)
            and t1 = cb *. A1.unsafe_get b (ib + k)
            and t2 = cc *. A1.unsafe_get c (ic + k)
            and t3 = cd *. A1.unsafe_get d (id + k) in
            let v = if s1 then t0 -. t1 else t0 +. t1 in
            let v = if s2 then v -. t2 else v +. t2 in
            let v = if s3 then v -. t3 else v +. t3 in
            A1.unsafe_set dst (d0 + k) v
          done
    | _ -> generic
  in
  RFill
    (fun env p0 len dst d0 ->
      let cw = env.e_chains.(slot) in
      for t = 0 to n - 1 do
        let { t_ref = aid, shift; t_coeff } = terms.(t) in
        let s = env.e_stores.(aid) in
        cw.cw_datas.(t) <- Store.read_only s;
        cw.cw_bases.(t) <- ref_base s shift p0 len;
        cw.cw_cvals.(t) <-
          (match t_coeff with None -> 1.0 | Some c -> inv c env p0)
      done;
      core cw dst d0 len;
      match kind with
      | KNone -> ()
      | KLeft (op, s) -> map_sv op (inv s env p0) dst d0 dst d0 len
      | KRight (op, s) -> map_vs op dst d0 (inv s env p0) dst d0 len)

(** [compile_row rc ~rank e] row-compiles [e] for iteration regions of
    rank [rank]. The checker guarantees what it relies on: every read
    has rank [rank], every [IndexD] has D <= [rank], and a store's
    innermost stride is 1, so every read lays along a row. *)
let compile_row (rc : rowctx) ~(rank : int) (e : Zpl.Prog.aexpr) : rowsrc =
  (* a ref's shift collapsed to one flat offset against the compile-time
     store's strides; the runtime env binds stores of the same geometry *)
  let flat aid off =
    let s = rc.rstore aid and dshift = ref 0 in
    Array.iteri (fun d o -> dshift := !dshift + (o * Store.stride s d)) off;
    (aid, !dshift)
  in
  let as_ref (e : Zpl.Prog.aexpr) : (int * int) option =
    match e with Zpl.Prog.ARef (aid, off) -> Some (flat aid off) | _ -> None
  in
  (* single-pass product shapes: [(a*b) ± (c*d)] and [a ± (b*c)] *)
  let special (e : Zpl.Prog.aexpr) : rowsrc option =
    let ref2 e =
      match e with
      | Zpl.Prog.AArith (`Mul, x, y) -> (
          match (as_ref x, as_ref y) with
          | Some rx, Some ry -> Some (rx, ry)
          | _ -> None)
      | _ -> None
    in
    match e with
    | Zpl.Prog.AArith (((`Add | `Sub) as op), a, b) -> (
        match ref2 b with
        | None -> None
        | Some (rc, rd) -> (
            match ref2 a with
            | Some (ra, rb) -> Some (fill_prodsum2 op ra rb rc rd)
            | None -> (
                match as_ref a with
                | Some ra -> Some (fill_refprod op ra rc rd)
                | None -> None)))
    | _ -> None
  in
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
        let aid, dshift = flat aid off in
        RRef (aid, dshift)
    | Zpl.Prog.AArith (op, a, b) -> (
        match chain e with
        | Some src -> src
        | None ->
        match special e with
        | Some src -> src
        | None ->
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
  (* single-pass chain at this node, optionally under a scalar factor *)
  and chain (e : Zpl.Prog.aexpr) : rowsrc option =
    let try_scalar e =
      match go e with RInv i -> Some i | RRef _ | RIndexLast | RFill _ -> None
    in
    (* one chain term: a plain full-rank ref, or one under a
       row-invariant coefficient on the left, [c * _]. A coefficient on
       the right is left to the general path: swapping multiplicand
       order is not bitwise-safe when both operands are NaN. *)
    let as_term (e : Zpl.Prog.aexpr) : cterm option =
      match as_ref e with
      | Some r -> Some { t_ref = r; t_coeff = None }
      | None -> (
          match e with
          | Zpl.Prog.AArith (`Mul, c, r) -> (
              match as_ref r with
              | Some r -> (
                  match try_scalar c with
                  | Some f -> Some { t_ref = r; t_coeff = Some f }
                  | None -> None)
              | None -> None)
          | _ -> None)
    in
    (* [collect e acc]: flatten a left-associated +/- spine whose
       trailing operands (and base) are all chain terms *)
    let rec collect (e : Zpl.Prog.aexpr) acc =
      match e with
      | Zpl.Prog.AArith (((`Add | `Sub) as op), a, b) -> (
          match as_term b with
          | Some t -> collect a ((op = `Sub, t) :: acc)
          | None -> None)
      | e -> (
          match as_term e with
          | Some base when acc <> [] -> Some (base, acc)
          | _ -> None)
    in
    let build kind (base, rest) =
      let terms = Array.of_list (base :: List.map snd rest) in
      let sub = Array.of_list (List.map fst rest) in
      fill_chain rc.rws terms sub kind
    in
    match e with
    | Zpl.Prog.AArith (op, a, b) -> (
        match collect e [] with
        | Some c -> Some (build KNone c)
        | None -> (
            match (try_scalar a, collect b []) with
            | Some f, Some c -> Some (build (KLeft (op, f)) c)
            | _ -> (
                match (collect a [], try_scalar b) with
                | Some c, Some f -> Some (build (KRight (op, f)) c)
                | _ -> None)))
    | _ -> None
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
