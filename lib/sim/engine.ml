(** Deterministic discrete-event simulation of an SPMD program on a
    simulated multiprocessor.

    Each virtual processor owns real distributed blocks (with fringes) of
    every array, executes the flattened IR greedily on its own clock, and
    blocks only on message availability (receives, rendezvous tokens,
    collective reductions). Because every wait is a blocking wait — no
    processor ever branches on the {e absence} of a message — processors
    may safely run ahead of each other: a blocked processor resumes at
    [max(own clock, message arrival)], which yields exactly the same times
    as a global-clock event loop. Ties never matter, so the simulation is
    fully deterministic. One host domain drains the runnable ring.

    {b Communication} is compiled at {!plan} time: every (transfer,
    processor, partner) side becomes one blueprint whose payload is
    either a {!Runtime.Wireplan.t} — flat blit descriptors against the
    local stores, with all member-array pieces of one partner packed into
    a single staging buffer — or the role of a synthesized collective
    round ({!Ir.Coll.role}), whose few scalars travel the same way. One
    interpreter runs the four IRONMAN calls over both. Each linked
    (send side, receive side) pair shares one {!chan}: the staging pool
    the sender draws buffers from, a data ring to the receiver and a
    token ring back, minted per side so an engine's state grows with its
    message sides, not with the square of the mesh. Every hot-path float
    lives in an all-float record or float array, so a steady-state
    communication activation allocates nothing: no payload lists, no
    closures, no boxed floats (regression-tested with [Gc.minor_words]).
    A staging buffer is acquired when the sender packs it — the
    send-time snapshot of the fringe — and returns to the {e sender's}
    pool only when the receiver unpacks it, so senders running ahead
    simply deepen the pool to the in-flight high-water mark. The tests check gathered results
    against the sequential oracle ({!Runtime.Seqexec}).

    The network model charges per-message CPU overheads and per-byte
    copy/pack costs on the involved processors (the "software overhead"
    the paper measures) plus wire latency and bandwidth. Under the
    default {!Machine.Topology.Ideal} every pair is one hop and links
    are never shared — the flat model the seed shipped, bit-identical
    to it. Under [Mesh]/[Torus] each message walks its precomputed
    dimension-order route hop by hop: at every directed link it waits
    for [max (head arrival) (link free)], holds the link for the
    transfer time, and pays one wire latency — so concurrent traffic
    over a shared link serializes (see DESIGN.md). Link grants follow
    the drain's execution order, which is deterministic. *)

(** What one side's messages carry: the member-array fringe pieces,
    compiled into a blit plan against this processor's shape-only stores
    (it depends only on the layout, never on cell data), or the scalars
    of one synthesized collective round ({!Ir.Coll.role}). *)
type payload = Fringe of Runtime.Wireplan.t | Round of Ir.Coll.desc

(** Immutable blueprint of one partner's share of a transfer on one
    processor: every message of a fringe transfer or of a collective
    round is one of these, so both run through the same IRONMAN
    interpreter. [b_link] on receive sides is the index of the matching
    side in the sender's send array, resolved and validated once, before
    the blueprint is shared; it is written during linking and frozen
    thereafter. A blueprint holds nothing of the topology, so one fringe
    blueprint serves every spec of its program and mesh. *)
type wblue = {
  b_partner : int;
  b_cells : int;
      (** values per message ([8 * b_cells] bytes): the blit plan's cell
          count, or the round's value count *)
  b_load : payload;
  mutable b_link : int;
}

type wbpair = { b_recv : wblue array; b_send : wblue array }

(** Per (transfer, processor), parallel to a {!wbpair}: each side's
    directed-link route to its partner under the plan's topology. *)
type rpair = { r_recv : int array array; r_send : int array array }

(** The spec-independent half of a plan: everything that depends only
    on the checked program and the mesh. Specs that differ in
    optimization, library, machine or topology but share program and
    mesh may share one geometry ([Run.Cache] keeps one per program
    digest and mesh). The fringe blueprints are built on first use and
    published linked; nothing in a published entry is written again, so
    plans on several domains may read and fill one geometry at once. *)
type geometry = {
  g_prog : Zpl.Prog.t;
  g_pr : int;
  g_pc : int;
  g_layout : Runtime.Layout.t;
  g_shapes : Runtime.Store.t array array;
      (** [rank].(array id): shape-only stores, the geometry every
          artifact is compiled against; {!of_plans} mints each engine's
          stores from them ({!Runtime.Store.of_shape}) *)
  g_class : int array;
      (** per rank: its geometry class. Ranks whose stores agree on
          every array's rank and strides share one kernel program; uneven
          block splits give other classes' stores different strides, so
          their flat shifts differ. *)
  g_reps : int array;  (** per class: its first rank *)
  g_alloc : (Zpl.Prog.array_info * float) array;
      (** per array: the cells its stores hold, summed over ranks (the
          allocation {!of_plans} checks against the work budget) *)
  g_fringe : (int list * (int * int), wbpair array) Memo.t;
      (** linked fringe blueprints, [.(proc)], by (member arrays,
          offset); unbounded *)
}

(** Compiled form of one flat op on one rank: store-agnostic
    {!Runtime.Kernel} plans, built eagerly at {!plan} time against
    shape-only stores, and {!Runtime.Values} scalar code, which is
    rank-independent and shared by every class. *)
type ckern =
  | KNone  (** op carries no compiled code (comm, jumps, halt) *)
  | KAssign of Runtime.Kernel.plan
  | KReduce of Runtime.Kernel.rplan
  | KScalar of (Runtime.Values.slots -> unit)  (** [FScalar] *)
  | KCond of (Runtime.Values.slots -> bool)  (** [FJumpIfNot] *)

(** Everything the engine needs that does not depend on run-time
    state: the compiled, immutable, shareable half of an engine. Two
    engines built from one [plans] value share these artifacts
    physically ([==]); each {!of_plans} call mints only the mutable
    half (stores, one kernel workspace, channels, statistics) and
    performs {e no kernel compilation} — the kernel programs in
    [p_kern] are store-agnostic and bind stores through a per-rank
    {!Runtime.Kernel.env}. *)
type plans = {
  p_flat : Ir.Flat.t;
  p_machine : Machine.Params.t;
  p_lib : Machine.Library.t;
  p_topology : Machine.Topology.t;
  p_geom : geometry;  (** the spec-independent half *)
  p_nslots : int;  (** collective slots *)
  p_dissem : bool array;  (** per slot: needs the allgathered partials *)
  p_wblue : wbpair array array;
      (** [transfer id].(proc); a fringe transfer's entry is the
          geometry's, shared by every plan over it *)
  p_routes : rpair array array;
      (** [transfer id].(proc), parallel to [p_wblue]; [[||]] under
          ideal, where no message walks links *)
  p_kern : ckern array array;
      (** per rank, per op index: the compiled, store-agnostic kernel
          program of its geometry class, shared physically within the
          class *)
  p_wspec : Runtime.Kernel.envspec;
      (** the join of every class's workspace needs: {!of_plans} mints
          one workspace per engine from it *)
  p_scalars : Runtime.Values.layout;  (** where each scalar lives *)
  p_slots : Runtime.Values.spec;
      (** the scalar slots {!of_plans} mints per rank *)
}

(* Blocked-state encoding. An option-of-variant would allocate on every
   block; two ints don't. The partner lists the old encoding carried are
   only needed for deadlock diagnostics and are recomputed there. *)
let wk_none = 0

let wk_data = 1 (* wait_arg = transfer id *)

let wk_tokens = 2 (* wait_arg = transfer id *)

let wk_reduce = 3 (* waiting in the opaque reduction at [pc] *)

(** Mutable float cell. All-float records are stored flat, so
    [c.fv <- c.fv +. dt] is an unboxed load/add/store; a mutable float
    field in the mixed [proc] record would box every update. *)
type fcell = { mutable fv : float }

(** Ring mailbox of one direction of a {!chan}: arrival times and
    staging buffers side by side so neither push nor pop allocates.
    Capacity is a power of two (grow-on-full); [mb_head] indexes the
    oldest entry. Token entries carry {!dummy_buf}. *)
type mbox = {
  mutable mb_arr : float array;
  mutable mb_buf : Runtime.Store.buf array;
  mutable mb_head : int;
  mutable mb_n : int;
}

let dummy_buf : Runtime.Store.buf = Runtime.Store.alloc_buf 0

let fresh_mbox () : mbox =
  { mb_arr = [||]; mb_buf = [||]; mb_head = 0; mb_n = 0 }

let mbox_grow (mb : mbox) =
  let cap = Array.length mb.mb_arr in
  let ncap = if cap = 0 then 4 else 2 * cap in
  let arr = Array.make ncap 0.0 in
  let buf = Array.make ncap dummy_buf in
  for i = 0 to mb.mb_n - 1 do
    let j = (mb.mb_head + i) land (cap - 1) in
    arr.(i) <- mb.mb_arr.(j);
    buf.(i) <- mb.mb_buf.(j)
  done;
  mb.mb_arr <- arr;
  mb.mb_buf <- buf;
  mb.mb_head <- 0

(** Slot index for the next push; the caller writes arrival and buffer
    into it directly so no float crosses a function boundary (which
    would box it). *)
let mbox_reserve (mb : mbox) : int =
  if mb.mb_n = Array.length mb.mb_arr then mbox_grow mb;
  let i = (mb.mb_head + mb.mb_n) land (Array.length mb.mb_arr - 1) in
  mb.mb_n <- mb.mb_n + 1;
  i

(** Slot index of the oldest entry, which is removed; the caller reads
    the fields out directly. Only call when [mb_n > 0]. *)
let mbox_pop (mb : mbox) : int =
  let i = mb.mb_head in
  mb.mb_head <- (i + 1) land (Array.length mb.mb_arr - 1);
  mb.mb_n <- mb.mb_n - 1;
  i

(** The per-engine state of one linked (send side, receive side) pair:
    the staging pool the sender draws buffers from, the data ring from
    sender to receiver and the token ring from receiver to sender. Each
    side has one fixed partner, and a transfer packs all pieces for one
    partner into one side, so a pair's rings are exactly the FIFO per
    (source, transfer, kind) the protocol needs. *)
type chan = { c_pool : Runtime.Wireplan.pool; c_data : mbox; c_tok : mbox }

(** A blueprint minted into one engine: the shared side, its route and
    its pair's channel. A send side owns its channel; a receive side
    shares the matching sender's, so releasing a consumed buffer returns
    it to where the next send will look. *)
type wside = { w_blue : wblue; w_route : int array; w_chan : chan }

type wplan = { w_recv : wside array; w_send : wside array }

(** The ring a wait on [side] reads: data on receive sides, tokens on
    send sides. *)
let mbox_of ~data (s : wside) = if data then s.w_chan.c_data else s.w_chan.c_tok

type proc = {
  rank : int;
  box_lo0 : int;
  box_hi0 : int;
  box_lo1 : int;
  box_hi1 : int;
      (** this rank's partition box ({!Runtime.Layout.box}), dims 0-1 *)
  mutable pc : int;
  time : fcell;
  stores : Runtime.Store.t array;
  slots : Runtime.Values.slots;  (** this rank's replicated scalars *)
  mutable wait_kind : int;  (** one of the [wk_*] codes *)
  mutable wait_arg : int;
  mutable halted : bool;
  mutable queued : bool;
  mutable instrs : int;  (** instructions executed by this processor *)
  posted : int array;  (** per transfer: outstanding posted receives *)
  send_done : float array;  (** per transfer: when the last send drained *)
  scratch : float array;
      (** unboxed hot-path temporaries: [0] max-arrival accumulator
          (also {!block_until_acc}'s argument) and a reduction's local
          partial, [1] per-byte unpack rate *)
  cacc : float array;  (** per collective slot: running combine value *)
  cvals : float array array;
      (** per collective slot used by dissemination: the allgathered
          partials, indexed by source rank; [[||]] for other slots *)
  kenv : Runtime.Kernel.env;
      (** this rank's stores and scalar slots, bound to the engine's one
          kernel workspace *)
  clip : int array;
      (** the region of the statement being dispatched, (lo, hi) per
          dim, clipped in place (see {!clip_local}) *)
  clipped : Zpl.Region.t array;
      (** per op index: the region last handed to the kernels there,
          updated in place when the clip moves ([[||]] until first
          needed; see {!clipped_region}) *)
  stats : Stats.per_proc;
}

(** The opaque reduction in flight. Every rank blocks in it until the
    last one arrives, so there is never more than one: {!finish_reduce}
    resets the slot for the next. *)
type reduce_slot = {
  mutable arrived : int;
  partials : float array;
  times : float array;
  mutable op : Zpl.Ast.redop;
  mutable lhs : int;  (** float slot of the target scalar *)
}

type t = {
  shared : plans;  (** the immutable half this engine was built from *)
  flat : Ir.Flat.t;
  machine : Machine.Params.t;
  lib : Machine.Library.t;
  layout : Runtime.Layout.t;
  topology : Machine.Topology.t;
  topo_ideal : bool;  (** [topology = Ideal]: take the flat-cost path *)
  link_free : float array;
      (** per directed link: when it next frees up; [[||]] under ideal.
          Mutated at send time in drain execution order. *)
  procs : proc array;
  ops_run : int array;
      (** per flat op index: completed executions on rank 0.
          Communication calls count on completion only (like [instrs]),
          so an op's count is its activation count; control flow is
          replicated, so every rank would count the same — the join key
          static communication predictions are validated against (see
          {!op_counts}). *)
  wplans : wplan array array;  (** [transfer id].(proc) *)
  runnable : int array;  (** ring; capacity = nprocs ([queued] dedups) *)
  mutable run_head : int;
  mutable run_len : int;
  reduce : reduce_slot;
  stats : Stats.t;
  limit : int;  (** the work budget ({!Runtime.Budget}) *)
  mutable work : int;
      (** work done so far, over all processors: instructions completed
          plus cells computed or reduced *)
  kern : ckern array array;  (** per rank: shared compiled kernel programs *)
  kws : Runtime.Kernel.workspace;
      (** the one kernel workspace every rank's env binds: the drain
          runs one kernel at a time *)
  mutable checked : int;
      (** the last instruction, counted as in [instrs], whose region
          {!clip_local} checked; every one before it is checked too *)
}

exception Deadlock of string
(* kept under its old name for callers that match it *)
exception Instruction_limit = Runtime.Budget.Exceeded

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(** The spec-independent half of a plan over [prog] on a [pr x pc] mesh:
    layout, shape-only stores, geometry classes and an empty fringe
    blueprint table. *)
let geometry ~pr ~pc (prog : Zpl.Prog.t) : geometry =
  let layout = Runtime.Layout.for_program ~pr ~pc prog in
  let nprocs = Runtime.Layout.nprocs layout in
  let fringe = Zpl.Prog.fringe_widths prog in
  (* blit plans and row kernels only read shapes and strides, so
     compile both against data-free stores — no cell allocation at
     plan time. {!of_plans} mints the real stores from these shapes, so
     the compiled flat shifts are valid against them by construction. *)
  let shapes =
    Array.init nprocs (fun rank ->
        Array.map
          (fun (info : Zpl.Prog.array_info) ->
            Runtime.Store.make_shape info
              ~owned:(Runtime.Halo.owned_of layout info rank)
              ~fringe:fringe.(info.a_id))
          prog.Zpl.Prog.arrays)
  in
  (* The kernel compiler reads only each array's rank and strides from
     its store, so ranks whose stores agree on that whole vector — one
     geometry class — share one program, compiled for the class's first
     rank. *)
  let classes = Hashtbl.create 16 and reps = ref [] in
  let g_class =
    Array.mapi
      (fun rank shape ->
        let geom =
          Array.map
            (fun s -> Array.init (Runtime.Store.rank s) (Runtime.Store.stride s))
            shape
        in
        match Hashtbl.find_opt classes geom with
        | Some c -> c
        | None ->
            let c = Hashtbl.length classes in
            Hashtbl.add classes geom c;
            reps := rank :: !reps;
            c)
      shapes
  in
  { g_prog = prog;
    g_pr = pr;
    g_pc = pc;
    g_layout = layout;
    g_shapes = shapes;
    g_class;
    g_reps = Array.of_list (List.rev !reps);
    g_alloc =
      Array.map
        (fun (info : Zpl.Prog.array_info) ->
          ( info,
            Array.fold_left
              (fun acc shape ->
                acc
                +. Runtime.Budget.cells
                     (Runtime.Store.alloc shape.(info.a_id)))
              0. shapes ))
        prog.Zpl.Prog.arrays;
    g_fringe = Memo.create ~capacity:max_int () }

let blueprint_sets (g : geometry) = Memo.length g.g_fringe

(** Compile the blueprints of one fringe transfer: per processor, per
    partner, the blit descriptors against shape-only stores, whose owned
    boxes also give the pieces. *)
let fringe_wblue (g : geometry) (x : Ir.Transfer.t) : wbpair array =
  let shapes = g.g_shapes in
  let owned q aid = Runtime.Store.owned shapes.(q).(aid) in
  let collect p dir =
    Array.of_list
      (List.map
         (fun (pp : Runtime.Halo.partner_pieces) ->
           let w =
             Runtime.Wireplan.build ~stores:shapes.(p) pp.Runtime.Halo.pp_rects
           in
           { b_partner = pp.Runtime.Halo.pp_partner;
             b_cells = Runtime.Wireplan.cells w;
             b_load = Fringe w;
             b_link = -1 })
         (Runtime.Halo.partner_sides ~owned g.g_layout g.g_prog
            ~arrays:x.Ir.Transfer.arrays ~off:x.Ir.Transfer.off ~p ~dir))
  in
  Array.init (Array.length shapes) (fun p ->
      { b_recv = collect p `Recv; b_send = collect p `Send })

(** Compile the blueprints of one synthesized collective round: each
    rank's {!Ir.Coll.role} becomes at most one send and one receive
    side. *)
let round_wblue (d : Ir.Coll.desc) ~nprocs : wbpair array =
  let load = Round d in
  Array.init nprocs (fun rank ->
      let r = Ir.Coll.role d ~rank in
      let side partner =
        if partner < 0 then [||]
        else
          [| { b_partner = partner;
               b_cells = r.Ir.Coll.r_count;
               b_load = load;
               b_link = -1 } |]
      in
      { b_recv = side r.Ir.Coll.r_from; b_send = side r.Ir.Coll.r_to })

(** Resolve every receive blueprint's [b_link] to the matching side in
    the sender's send array, and check that both ends compiled the same
    staging layout. Runs once per blueprint set, before it is shared;
    {!of_plans} only follows the recorded indices. Raises [Failure]
    naming the transfer. *)
let link_wblue (prog : Zpl.Prog.t) (x : Ir.Transfer.t) (bp : wbpair array) =
  Array.iteri
    (fun p pair ->
      Array.iter
        (fun (rb : wblue) ->
          let sender = bp.(rb.b_partner) in
          let link = ref (-1) in
          Array.iteri
            (fun i (sb : wblue) -> if sb.b_partner = p then link := i)
            sender.b_send;
          if !link < 0 then
            Fmt.failwith
              "Engine.plan: transfer %s: proc %d expects data from %d, \
               which plans no send back"
              (Ir.Transfer.describe prog x) p rb.b_partner;
          let sb = sender.b_send.(!link) in
          if sb.b_cells <> rb.b_cells then
            Fmt.failwith
              "Engine.plan: transfer %s: procs %d and %d disagree on \
               the message layout (%d vs %d cells)"
              (Ir.Transfer.describe prog x) rb.b_partner p sb.b_cells
              rb.b_cells;
          rb.b_link <- !link)
        pair.b_recv)
    bp

(** The linked blueprints of fringe transfer [x] from the geometry's
    table, built and linked outside the lock on first use; a racing
    duplicate build is discarded, and the first published set wins. *)
let fringe_sides (g : geometry) (x : Ir.Transfer.t) : wbpair array =
  fst
    (Memo.find_or_build g.g_fringe (x.Ir.Transfer.arrays, x.Ir.Transfer.off)
       (fun () ->
         let bp = fringe_wblue g x in
         link_wblue g.g_prog x bp;
         bp))

let plan ?(topology = Machine.Topology.Ideal) ?geometry:geom
    ~(machine : Machine.Params.t) ~(lib : Machine.Library.t) ~pr ~pc
    (flat : Ir.Flat.t) : plans =
  let prog = flat.Ir.Flat.prog in
  let g =
    match geom with
    | None -> geometry ~pr ~pc prog
    | Some g ->
        if g.g_prog != prog || g.g_pr <> pr || g.g_pc <> pc then
          invalid_arg
            "Engine.plan: the geometry was built for another program or mesh";
        g
  in
  let layout = g.g_layout in
  let nprocs = Runtime.Layout.nprocs layout in
  (* fringe shifts must stay within adjacent blocks *)
  let max_off =
    Array.fold_left
      (fun m (x : Ir.Transfer.t) ->
        let d0, d1 = x.off in
        max m (max (abs d0) (abs d1)))
      0 flat.Ir.Flat.transfers
  in
  let mr, mc = Runtime.Layout.min_block_extent layout in
  if max_off > min mr mc then
    Fmt.invalid_arg
      "Engine.plan: shift magnitude %d exceeds the smallest block extent \
       (%d x %d) of a %dx%d mesh"
      max_off mr mc pr pc;
  let nslots = Ir.Flat.coll_slots flat in
  (* slots whose algorithm gathers raw partials (dissemination) need the
     per-rank value array; derived from ops too, for the zero-round
     one-processor case *)
  let dissem_slot = Array.make nslots false in
  Array.iter
    (fun (x : Ir.Transfer.t) ->
      match x.Ir.Transfer.coll with
      | Some d ->
          if d.Ir.Coll.cl_nprocs <> nprocs then
            Fmt.invalid_arg
              "Engine.plan: collective round %s was synthesized for %d \
               processors, but the engine mesh is %dx%d (%d) — recompile for \
               this mesh"
              (Ir.Coll.describe d) d.Ir.Coll.cl_nprocs pr pc nprocs;
          if d.Ir.Coll.cl_alg = Ir.Coll.Dissem then
            dissem_slot.(d.Ir.Coll.cl_slot) <- true
      | None -> ())
    flat.Ir.Flat.transfers;
  Array.iter
    (function
      | Ir.Flat.FCollPart w | Ir.Flat.FCollFin w ->
          if w.Ir.Instr.cw_alg = Ir.Coll.Dissem then
            dissem_slot.(w.Ir.Instr.cw_slot) <- true
      | _ -> ())
    flat.Ir.Flat.ops;
  let p_wblue =
    Array.map
      (fun (x : Ir.Transfer.t) ->
        match x.Ir.Transfer.coll with
        | Some d ->
            let bp = round_wblue d ~nprocs in
            link_wblue prog x bp;
            bp
        | None -> fringe_sides g x)
      flat.Ir.Flat.transfers
  in
  (* one route per directed (rank, partner) pair, shared by every side
     that walks it *)
  let p_routes =
    if topology = Machine.Topology.Ideal then [||]
    else begin
      let memo = Hashtbl.create 64 in
      let route src (b : wblue) =
        let k = (src * nprocs) + b.b_partner in
        match Hashtbl.find_opt memo k with
        | Some r -> r
        | None ->
            let r =
              Machine.Topology.route topology ~pr ~pc ~src ~dst:b.b_partner
            in
            Hashtbl.add memo k r;
            r
      in
      Array.map
        (Array.mapi (fun p (pair : wbpair) ->
             { r_recv = Array.map (route p) pair.b_recv;
               r_send = Array.map (route p) pair.b_send }))
        p_wblue
    end
  in
  let ops = flat.Ir.Flat.ops in
  (* Store-agnostic kernel and scalar compilation at plan time. Engines
     minted from this plan set never compile — they bind stores and
     scalar slots through a per-rank env. Scalar code is
     rank-independent, so every geometry class shares it. *)
  let scalars = Runtime.Values.layout_of_prog prog in
  let sc = Runtime.Values.compiler scalars in
  let scode =
    Array.map
      (function
        | Ir.Flat.FScalar { lhs; rhs } ->
            KScalar (Runtime.Values.assign sc ~lhs rhs)
        | Ir.Flat.FJumpIfNot (cond, _) -> KCond (Runtime.Values.cond sc cond)
        | _ -> KNone)
      ops
  in
  let compile_class rank =
    let shape = g.g_shapes.(rank) in
    let ws = Runtime.Kernel.make_ws scalars in
    let rc = { Runtime.Kernel.rstore = (fun aid -> shape.(aid)); rws = ws } in
    let k_ops =
      Array.mapi
        (fun i -> function
          | Ir.Flat.FKernel a -> KAssign (Runtime.Kernel.plan_assign rc a)
          | Ir.Flat.FReduce r -> KReduce (Runtime.Kernel.plan_reduce rc r)
          | Ir.Flat.FCollPart w ->
              KReduce (Runtime.Kernel.plan_reduce rc w.Ir.Instr.cw_red)
          | _ -> scode.(i))
        ops
    in
    (k_ops, Runtime.Kernel.ws_spec ws)
  in
  let per_class = Array.map compile_class g.g_reps in
  { p_flat = flat;
    p_machine = machine;
    p_lib = lib;
    p_topology = topology;
    p_geom = g;
    p_nslots = nslots;
    p_dissem = dissem_slot;
    p_wblue;
    p_routes;
    p_kern = Array.map (fun c -> fst per_class.(c)) g.g_class;
    p_wspec =
      Array.fold_left
        (fun acc (_, spec) -> Runtime.Kernel.join_spec acc spec)
        (snd per_class.(0)) per_class;
    p_scalars = scalars;
    p_slots = Runtime.Values.spec sc }

let of_plans ?(limit = Runtime.Budget.default) (sp : plans) : t =
  let flat = sp.p_flat in
  let g = sp.p_geom in
  Runtime.Budget.check_alloc ~limit g.g_alloc;
  let layout = g.g_layout in
  let topo_ideal = sp.p_topology = Machine.Topology.Ideal in
  let nprocs = Runtime.Layout.nprocs layout in
  let nx = Array.length flat.Ir.Flat.transfers in
  let nslots = sp.p_nslots in
  let kws = Runtime.Kernel.make_workspace sp.p_wspec in
  let procs =
    Array.init nprocs (fun rank ->
        let stores = Array.map Runtime.Store.of_shape g.g_shapes.(rank) in
        let slots = Runtime.Values.make_slots sp.p_slots in
        let box = Runtime.Layout.box layout rank in
        { rank;
          box_lo0 = box.(0).Zpl.Region.lo;
          box_hi0 = box.(0).Zpl.Region.hi;
          box_lo1 = box.(1).Zpl.Region.lo;
          box_hi1 = box.(1).Zpl.Region.hi;
          pc = 0; time = { fv = 0.0 }; stores;
          slots;
          wait_kind = wk_none; wait_arg = 0;
          halted = false; queued = false;
          instrs = 0;
          posted = Array.make nx 0;
          send_done = Array.make nx 0.0;
          scratch = Array.make 2 0.0;
          cacc = Array.make nslots 0.0;
          cvals =
            Array.init nslots (fun s ->
                if sp.p_dissem.(s) then Array.make nprocs 0.0 else [||]);
          kenv = Runtime.Kernel.make_env ~stores ~slots kws;
          clip = Array.make 6 0;
          clipped = Array.make (Array.length flat.Ir.Flat.ops) [||];
          stats = Stats.fresh_proc () })
  in
  let route x p recv i =
    if topo_ideal then [||]
    else
      let r = sp.p_routes.(x).(p) in
      if recv then r.r_recv.(i) else r.r_send.(i)
  in
  (* one channel per send side; each receive side takes its sender's
     (resolved at plan time into [b_link]) *)
  let wplans =
    Array.mapi
      (fun x (bp : wbpair array) ->
        let sends =
          Array.mapi
            (fun p (pair : wbpair) ->
              Array.mapi
                (fun i (b : wblue) ->
                  { w_blue = b;
                    w_route = route x p false i;
                    w_chan =
                      { c_pool = Runtime.Wireplan.make_pool ~cells:b.b_cells;
                        c_data = fresh_mbox ();
                        c_tok = fresh_mbox () } })
                pair.b_send)
            bp
        in
        Array.mapi
          (fun p (pair : wbpair) ->
            { w_recv =
                Array.mapi
                  (fun i (b : wblue) ->
                    { w_blue = b;
                      w_route = route x p true i;
                      w_chan = sends.(b.b_partner).(b.b_link).w_chan })
                  pair.b_recv;
              w_send = sends.(p) })
          bp)
      sp.p_wblue
  in
  { shared = sp;
    flat;
    machine = sp.p_machine;
    lib = sp.p_lib;
    layout;
    topology = sp.p_topology;
    topo_ideal;
    link_free =
      (if topo_ideal then [||]
       else Array.make (Machine.Topology.nlinks ~pr:g.g_pr ~pc:g.g_pc) 0.0);
    procs;
    ops_run = Array.make (Array.length flat.Ir.Flat.ops) 0;
    wplans;
    runnable = Array.make (max 1 nprocs) 0;
    run_head = 0;
    run_len = 0;
    reduce =
      { arrived = 0;
        partials = Array.make nprocs 0.0;
        times = Array.make nprocs 0.0;
        op = Zpl.Ast.RSum;
        lhs = 0 };
    stats = Stats.make nprocs;
    limit;
    work = 0;
    kern = sp.p_kern;
    kws;
    checked = 0 }

let shared_plans (t : t) = t.shared
let plan_geometry (sp : plans) = sp.p_geom

type sides = wbpair array

let sides (sp : plans) x = sp.p_wblue.(x)

let kernel_classes (sp : plans) = Array.length sp.p_geom.g_reps
let workspace_words (t : t) = Runtime.Kernel.workspace_words t.kws

(* ------------------------------------------------------------------ *)
(* Mail and the runnable ring                                          *)
(* ------------------------------------------------------------------ *)

let wake (t : t) (q : proc) =
  if (not q.halted) && not q.queued then begin
    q.queued <- true;
    let cap = Array.length t.runnable in
    t.runnable.((t.run_head + t.run_len) mod cap) <- q.rank;
    t.run_len <- t.run_len + 1
  end

(** Rank of the next runnable processor, or -1. *)
let take_runnable (t : t) : int =
  if t.run_len = 0 then -1
  else begin
    let r = t.runnable.(t.run_head) in
    t.run_head <- (t.run_head + 1) mod Array.length t.runnable;
    t.run_len <- t.run_len - 1;
    r
  end

(** True when every side's next message has arrived. Top-level
    recursion, not a local closure — the empty-mailbox check runs on
    every (possibly re-executed) wait and must not allocate. *)
let rec all_arrived ~data (sides : wside array) i =
  i >= Array.length sides
  || ((mbox_of ~data sides.(i)).mb_n > 0 && all_arrived ~data sides (i + 1))

(** Partners with no pending message — deadlock diagnostics only. *)
let missing_partners ~data (sides : wside array) =
  Array.to_list sides
  |> List.filter_map (fun (s : wside) ->
         if (mbox_of ~data s).mb_n = 0 then Some s.w_blue.b_partner else None)

(* ------------------------------------------------------------------ *)
(* Cost helpers                                                        *)
(* ------------------------------------------------------------------ *)

let costs (t : t) = t.lib.Machine.Library.costs

let reduce_stage_cost (t : t) =
  let c = costs t in
  c.Machine.Params.sr_over +. c.Machine.Params.dn_over
  +. t.machine.Machine.Params.wire_latency

let reduce_stages (t : t) =
  let n = Runtime.Layout.nprocs t.layout in
  Ir.Coll.ceil_log2 (max 2 n)

(** Arrival of a message's head after walking [route] (a precomputed
    directed-link sequence), departing at [p]'s clock: at each hop the
    message claims the link at [max (head so far) (link free)], holds it
    for the transfer time of [nbytes], and pays one wire latency —
    store-and-forward with per-link serialization. The arrival is left
    in [p.scratch.(0)], which also carries the head time hop to hop: a
    float argument or result would be boxed at the call (no flambda), so
    a routed message allocates nothing either. Mutates {!t.link_free};
    link grants follow call order, which the serial drain makes
    deterministic. Callers add the library's messaging latency (msg or
    token) on top, exactly as the flat model does. *)
let route_arrival (t : t) (p : proc) ~nbytes (route : int array) =
  let occupy = float_of_int nbytes /. t.machine.Machine.Params.bandwidth in
  let hop = t.machine.Machine.Params.wire_latency +. occupy in
  p.scratch.(0) <- p.time.fv;
  for i = 0 to Array.length route - 1 do
    let l = Array.unsafe_get route i in
    if t.link_free.(l) > p.scratch.(0) then p.scratch.(0) <- t.link_free.(l);
    t.link_free.(l) <- p.scratch.(0) +. occupy;
    p.scratch.(0) <- p.scratch.(0) +. hop
  done

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

type step = Continue | Blocked | Halted

(* The compiled, store-agnostic kernel programs live in the shared
   [plans]; these lookups never compile anything. *)

let assign_plan (t : t) (p : proc) idx =
  match t.kern.(p.rank).(idx) with
  | KAssign plan -> plan
  | _ -> assert false

let reduce_plan (t : t) (p : proc) idx =
  match t.kern.(p.rank).(idx) with
  | KReduce plan -> plan
  | _ -> assert false

(* --- kernel dispatch ---

   A statement's iteration region is clipped as ints in [p.clip]:
   its bounds evaluated under the rank's scalars, a loop-variant one
   checked against the statement-region rule, and dims 0-1 cut to the
   partition box. An empty clip — most ranks, on the single-row
   statements of a serialized sweep — goes straight to the zero-cell
   charge; a non-empty one reuses the op's last [Zpl.Region.t] while
   the clip repeats (always, for static regions). Kernel dispatch
   thus allocates only when a rank meets a new non-empty region. *)

let imax (a : int) b = if a > b then a else b
let imin (a : int) b = if a < b then a else b

(** Evaluate the region [s] iterates under [p]'s scalars into [p.clip],
    check a loop-variant one against the statement-region rule
    ({!Zpl.Prog.check_region}), and cut dims 0-1 to the partition box.
    By the rule, the cut region lies inside every owned box the
    statement writes or reads from. {!plan} checked every bound's scalar
    to be an int. Returns the region's rank. *)
let clip_local (type s) (t : t) (p : proc) (over : s Zpl.Prog.over) (s : s) :
    int =
  let dr = Zpl.Prog.over_region over s in
  let n = Array.length dr in
  let c = p.clip in
  for d = 0 to n - 1 do
    let lo, hi = dr.(d) in
    c.(2 * d) <- Runtime.Values.bound t.shared.p_scalars p.slots lo;
    c.((2 * d) + 1) <- Runtime.Values.bound t.shared.p_scalars p.slots hi
  done;
  (* Every rank runs the same instructions over the same int scalars,
     so the rank furthest ahead checks each region for all. *)
  if p.instrs > t.checked && not (Zpl.Prog.is_static dr) then begin
    Zpl.Prog.check_region t.flat.Ir.Flat.prog.Zpl.Prog.arrays t.layout.space
      over s c;
    t.checked <- p.instrs
  end;
  assert (n >= 2) (* statement regions have the rank of an array *);
  c.(0) <- imax c.(0) p.box_lo0;
  c.(1) <- imin c.(1) p.box_hi0;
  c.(2) <- imax c.(2) p.box_lo1;
  c.(3) <- imin c.(3) p.box_hi1;
  n

(** Cells in the rank-[n] clip: [Zpl.Region.size] of it, 0 when empty. *)
let clip_cells (p : proc) n =
  let c = p.clip in
  let cells = ref 1 in
  for d = 0 to n - 1 do
    let ext = c.((2 * d) + 1) - c.(2 * d) + 1 in
    cells := if ext <= 0 then 0 else !cells * ext
  done;
  !cells

(** The non-empty rank-[n] clip as a region, memoized at op [idx]:
    the region last built there, its ranges replaced in place only for
    the dims whose clip changed (a row sweep allocates one range per
    new row, a static region nothing after its first execution). The
    kernels never retain the regions they are handed, so updating one
    in place is unobservable. *)
let clipped_region (p : proc) idx n : Zpl.Region.t =
  let c = p.clip in
  let r =
    if Array.length p.clipped.(idx) = n then p.clipped.(idx)
    else begin
      let r = Array.make n (Zpl.Region.range 0 (-1)) in
      p.clipped.(idx) <- r;
      r
    end
  in
  for d = 0 to n - 1 do
    let lo = c.(2 * d) and hi = c.((2 * d) + 1) in
    if r.(d).Zpl.Region.lo <> lo || r.(d).Zpl.Region.hi <> hi then
      r.(d) <- Zpl.Region.range lo hi
  done;
  r

(** Charge the cost of one executed statement. *)
let charge_kernel (t : t) (p : proc) ~cells ~flops =
  let dt =
    t.machine.Machine.Params.kernel_overhead
    +. (float_of_int (cells * flops) *. t.machine.Machine.Params.sec_per_flop)
  in
  p.time.fv <- p.time.fv +. dt;
  p.stats.Stats.times.Stats.compute <- p.stats.Stats.times.Stats.compute +. dt;
  p.stats.Stats.cells <- p.stats.Stats.cells + cells;
  t.work <- t.work + cells

(** Charge one scalar operation (a scalar statement, a branch test, a
    collective's final combine) as compute, so that every processor's
    compute, communication and wait times add up to its finish time. *)
let[@inline] charge_scalar (t : t) (p : proc) =
  let dt = t.machine.Machine.Params.scalar_op_cost in
  p.time.fv <- p.time.fv +. dt;
  p.stats.Stats.times.Stats.compute <- p.stats.Stats.times.Stats.compute +. dt

let exec_kernel (t : t) (p : proc) idx (a : Zpl.Prog.assign_a) =
  let n = clip_local t p Zpl.Prog.Assign a in
  let cells =
    if clip_cells p n = 0 then 0
    else
      Runtime.Kernel.exec_plan (assign_plan t p idx) ~env:p.kenv
        ~lhs:p.stores.(a.lhs) ~region:(clipped_region p idx n)
  in
  charge_kernel t p ~cells ~flops:a.flops

(* --- communication calls --- *)

(** Wait until the arrival time held in [scratch.(0)], charging the gap
    as wait time. The time travels through the scratch slot because a
    float parameter would be boxed at the call (no flambda). *)
let block_until_acc (p : proc) =
  let a = p.scratch.(0) in
  if a > p.time.fv then begin
    p.stats.Stats.times.Stats.wait <-
      p.stats.Stats.times.Stats.wait +. (a -. p.time.fv);
    p.time.fv <- a
  end

(* --- messages: pooled staging buffers through channel rings ---

   Fringe transfers and synthesized collective rounds are the same
   protocol here; only a side's payload decides how a staging buffer is
   filled ({!Runtime.Wireplan.pack} or {!coll_pack}) and drained
   ({!Runtime.Wireplan.unpack} or {!coll_combine}). Nothing here
   allocates in steady state: costs are computed inline into all-float
   records and scratch slots, payloads are packed into pooled buffers,
   and queues are int-indexed rings. Keep helper calls float-free — an
   OCaml float argument or return is boxed at every non-inlined call. *)

(** Fill a round's staging buffer from this rank's collective state. *)
let coll_pack (p : proc) (d : Ir.Coll.desc) (s : wblue)
    (buf : Runtime.Store.buf) =
  match (d.Ir.Coll.cl_alg, d.Ir.Coll.cl_phase) with
  | Ir.Coll.Dissem, Ir.Coll.Gather ->
      (* the window of [count] consecutive partials ending at our rank,
         newest first: entry j originated at rank - j *)
      let vals = p.cvals.(d.Ir.Coll.cl_slot) in
      let np = d.Ir.Coll.cl_nprocs in
      for j = 0 to s.b_cells - 1 do
        Bigarray.Array1.unsafe_set buf j
          vals.((((p.rank - j) mod np) + np) mod np)
      done
  | _ -> Bigarray.Array1.unsafe_set buf 0 p.cacc.(d.Ir.Coll.cl_slot)

(** Fold a received round payload into this rank's collective state;
    [s] is the receive side, so [s.b_partner] is the sender. The combine
    expressions are fixed per (algorithm, phase) — see {!Ir.Coll} for
    why each choice keeps the result bit-identical across ranks. *)
let coll_combine (p : proc) (d : Ir.Coll.desc) (s : wblue)
    (buf : Runtime.Store.buf) =
  let slot = d.Ir.Coll.cl_slot in
  let op = d.Ir.Coll.cl_op in
  match (d.Ir.Coll.cl_alg, d.Ir.Coll.cl_phase) with
  | Ir.Coll.Ring, Ir.Coll.Reduce ->
      (* the chain prefix arrives; our partial folds on its right *)
      p.cacc.(slot) <-
        Runtime.Reduce.apply op (Bigarray.Array1.unsafe_get buf 0) p.cacc.(slot)
  | Ir.Coll.Binomial, Ir.Coll.Reduce | Ir.Coll.Recdouble, Ir.Coll.Fold_in ->
      (* lower rank holds the left operand *)
      p.cacc.(slot) <-
        Runtime.Reduce.apply op p.cacc.(slot) (Bigarray.Array1.unsafe_get buf 0)
  | Ir.Coll.Recdouble, Ir.Coll.Reduce ->
      (* both partners evaluate lower-rank-left, so their bits agree *)
      if s.b_partner > p.rank then
        p.cacc.(slot) <-
          Runtime.Reduce.apply op p.cacc.(slot)
            (Bigarray.Array1.unsafe_get buf 0)
      else
        p.cacc.(slot) <-
          Runtime.Reduce.apply op
            (Bigarray.Array1.unsafe_get buf 0)
            p.cacc.(slot)
  | Ir.Coll.Ring, Ir.Coll.Bcast
  | Ir.Coll.Binomial, Ir.Coll.Bcast
  | Ir.Coll.Recdouble, Ir.Coll.Fold_out ->
      p.cacc.(slot) <- Bigarray.Array1.unsafe_get buf 0
  | Ir.Coll.Dissem, Ir.Coll.Gather ->
      let vals = p.cvals.(slot) in
      let np = d.Ir.Coll.cl_nprocs in
      for j = 0 to s.b_cells - 1 do
        vals.((((s.b_partner - j) mod np) + np) mod np) <-
          Bigarray.Array1.unsafe_get buf j
      done
  | _ -> assert false (* no role delivers data in these (alg, phase) *)

let wire_send (t : t) (p : proc) ~xfer (s : wside) =
  let c = costs t in
  let m = t.machine in
  let b = s.w_blue in
  let buf = Runtime.Wireplan.acquire s.w_chan.c_pool in
  (match b.b_load with
  | Fringe w -> Runtime.Wireplan.pack w p.stores buf
  | Round d -> coll_pack p d b buf);
  let nbytes = 8 * b.b_cells in
  let bytes = float_of_int nbytes in
  let cpu = c.Machine.Params.sr_over +. (bytes *. c.Machine.Params.send_byte) in
  p.time.fv <- p.time.fv +. cpu;
  p.stats.Stats.times.Stats.comm_cpu <-
    p.stats.Stats.times.Stats.comm_cpu +. cpu;
  let q = t.procs.(b.b_partner) in
  let mb = s.w_chan.c_data in
  let j = mbox_reserve mb in
  if t.topo_ideal then
    mb.mb_arr.(j) <-
      p.time.fv
      +. (m.Machine.Params.wire_latency +. c.Machine.Params.msg_latency
         +. (bytes /. m.Machine.Params.bandwidth))
  else begin
    route_arrival t p ~nbytes s.w_route;
    mb.mb_arr.(j) <- p.scratch.(0) +. c.Machine.Params.msg_latency
  end;
  mb.mb_buf.(j) <- buf;
  wake t q;
  let cand = p.time.fv +. (bytes /. m.Machine.Params.bandwidth) in
  if cand > p.send_done.(xfer) then p.send_done.(xfer) <- cand;
  p.stats.Stats.msgs_sent <- p.stats.Stats.msgs_sent + 1;
  p.stats.Stats.bytes_sent <- p.stats.Stats.bytes_sent + nbytes

(** One IRONMAN call on one transfer, under the library's semantics for
    it (Figure 5 of the paper). *)
let exec_comm (t : t) (p : proc) (call : Ir.Instr.call) (xfer : int) : step =
  let wp = t.wplans.(xfer).(p.rank) in
  let c = costs t in
  match Machine.Library.semantics t.lib.Machine.Library.kind call with
  | Machine.Library.No_op -> Continue
  | Machine.Library.Post_recv ->
      let nr = Array.length wp.w_recv in
      if nr > 0 then begin
        let dt = float_of_int nr *. c.Machine.Params.dr_over in
        p.time.fv <- p.time.fv +. dt;
        p.stats.Stats.times.Stats.comm_cpu <-
          p.stats.Stats.times.Stats.comm_cpu +. dt;
        p.posted.(xfer) <- p.posted.(xfer) + 1
      end;
      Continue
  | Machine.Library.Notify_ready ->
      for i = 0 to Array.length wp.w_recv - 1 do
        let s = wp.w_recv.(i) in
        let b = s.w_blue in
        p.time.fv <- p.time.fv +. c.Machine.Params.dr_over;
        p.stats.Stats.times.Stats.comm_cpu <-
          p.stats.Stats.times.Stats.comm_cpu +. c.Machine.Params.dr_over;
        let q = t.procs.(b.b_partner) in
        let mb = s.w_chan.c_tok in
        let j = mbox_reserve mb in
        if t.topo_ideal then
          mb.mb_arr.(j) <-
            p.time.fv
            +. t.machine.Machine.Params.wire_latency
            +. c.Machine.Params.token_latency
        else begin
          route_arrival t p ~nbytes:0 s.w_route;
          mb.mb_arr.(j) <- p.scratch.(0) +. c.Machine.Params.token_latency
        end;
        mb.mb_buf.(j) <- dummy_buf;
        wake t q
      done;
      Continue
  | Machine.Library.Send_buffered ->
      let ns = Array.length wp.w_send in
      if ns > 0 then begin
        for i = 0 to ns - 1 do
          wire_send t p ~xfer wp.w_send.(i)
        done;
        p.stats.Stats.xfers_sent <- p.stats.Stats.xfers_sent + 1
      end;
      Continue
  | Machine.Library.Send_rendezvous ->
      let ns = Array.length wp.w_send in
      if ns = 0 then Continue
      else if not (all_arrived ~data:false wp.w_send 0) then begin
        p.wait_kind <- wk_tokens;
        p.wait_arg <- xfer;
        Blocked
      end
      else begin
        p.wait_kind <- wk_none;
        p.scratch.(0) <- 0.0;
        for i = 0 to ns - 1 do
          let mb = wp.w_send.(i).w_chan.c_tok in
          let j = mbox_pop mb in
          if mb.mb_arr.(j) > p.scratch.(0) then p.scratch.(0) <- mb.mb_arr.(j)
        done;
        block_until_acc p;
        for i = 0 to ns - 1 do
          wire_send t p ~xfer wp.w_send.(i)
        done;
        p.stats.Stats.xfers_sent <- p.stats.Stats.xfers_sent + 1;
        Continue
      end
  | Machine.Library.Wait_data ->
      let nr = Array.length wp.w_recv in
      if nr = 0 then Continue
      else if not (all_arrived ~data:true wp.w_recv 0) then begin
        p.wait_kind <- wk_data;
        p.wait_arg <- xfer;
        Blocked
      end
      else begin
        p.wait_kind <- wk_none;
        (* max arrival first (peek), so waiting is charged once against
           the overall latest message — accumulating per message would
           round differently *)
        p.scratch.(0) <- 0.0;
        for i = 0 to nr - 1 do
          let mb = wp.w_recv.(i).w_chan.c_data in
          if mb.mb_arr.(mb.mb_head) > p.scratch.(0) then
            p.scratch.(0) <- mb.mb_arr.(mb.mb_head)
        done;
        block_until_acc p;
        if p.posted.(xfer) > 0 then begin
          p.posted.(xfer) <- p.posted.(xfer) - 1;
          p.scratch.(1) <- 0.0
        end
        else if Machine.Library.deposits_directly t.lib.Machine.Library.kind
        then p.scratch.(1) <- 0.0
        else p.scratch.(1) <- c.Machine.Params.recv_byte;
        for i = 0 to nr - 1 do
          let s = wp.w_recv.(i) in
          let b = s.w_blue in
          let mb = s.w_chan.c_data in
          let j = mbox_pop mb in
          let buf = mb.mb_buf.(j) in
          mb.mb_buf.(j) <- dummy_buf;
          let nbytes = 8 * b.b_cells in
          let dt =
            c.Machine.Params.dn_over
            +. (float_of_int nbytes *. p.scratch.(1))
          in
          p.time.fv <- p.time.fv +. dt;
          p.stats.Stats.times.Stats.comm_cpu <-
            p.stats.Stats.times.Stats.comm_cpu +. dt;
          (match b.b_load with
          | Fringe w -> Runtime.Wireplan.unpack w p.stores buf
          | Round d -> coll_combine p d b buf);
          Runtime.Wireplan.release s.w_chan.c_pool buf;
          p.stats.Stats.msgs_recv <- p.stats.Stats.msgs_recv + 1;
          p.stats.Stats.bytes_recv <- p.stats.Stats.bytes_recv + nbytes
        done;
        p.stats.Stats.xfers_recv <- p.stats.Stats.xfers_recv + 1;
        Continue
      end
  | Machine.Library.Wait_send_done ->
      if Array.length wp.w_send > 0 then begin
        p.scratch.(0) <- p.send_done.(xfer);
        block_until_acc p;
        p.time.fv <- p.time.fv +. c.Machine.Params.sv_over;
        p.stats.Stats.times.Stats.comm_cpu <-
          p.stats.Stats.times.Stats.comm_cpu +. c.Machine.Params.sv_over
      end;
      Continue

(* --- collective reduction --- *)

let finish_reduce (t : t) =
  let slot = t.reduce in
  let n = Array.length t.procs in
  let value = ref (Runtime.Reduce.identity slot.op) in
  for r = 0 to n - 1 do
    value := Runtime.Reduce.apply slot.op !value slot.partials.(r)
  done;
  let arrive = Array.fold_left Float.max 0.0 slot.times in
  let finish =
    arrive +. (float_of_int (reduce_stages t) *. reduce_stage_cost t)
  in
  for r = 0 to n - 1 do
    let q = t.procs.(r) in
    q.stats.Stats.times.Stats.wait <-
      q.stats.Stats.times.Stats.wait +. Float.max 0.0 (finish -. q.time.fv);
    q.time.fv <- Float.max q.time.fv finish;
    q.slots.Runtime.Values.f.(slot.lhs) <- !value;
    q.stats.Stats.reduces <- q.stats.Stats.reduces + 1;
    q.wait_kind <- wk_none;
    q.pc <- q.pc + 1;
    wake t q
  done;
  slot.arrived <- 0

(** This rank's partial of the reduction at op [idx] over its local
    part of [r]'s region (dims 0-1 cut to the partition box), and the
    cells it reduced: the identity and 0 when that part is empty. The
    partial travels through [p.scratch.(0)] so no float is boxed. *)
let reduce_partial (t : t) (p : proc) idx (r : Zpl.Prog.reduce_s) : int =
  let n = clip_local t p Zpl.Prog.Reduce r in
  let cells = clip_cells p n in
  if cells = 0 then p.scratch.(0) <- Runtime.Reduce.identity r.r_op
  else
    p.scratch.(0) <-
      Runtime.Kernel.exec_rplan (reduce_plan t p idx) ~env:p.kenv
        ~region:(clipped_region p idx n) r.r_op;
  cells

let exec_reduce (t : t) (p : proc) idx (r : Zpl.Prog.reduce_s) : step =
  let slot = t.reduce in
  let cells = reduce_partial t p idx r in
  slot.partials.(p.rank) <- p.scratch.(0);
  charge_kernel t p ~cells ~flops:r.r_flops;
  slot.op <- r.r_op;
  slot.lhs <- Runtime.Values.slot t.shared.p_scalars r.r_lhs;
  slot.times.(p.rank) <- p.time.fv;
  slot.arrived <- slot.arrived + 1;
  p.wait_kind <- wk_reduce;
  if slot.arrived = Array.length t.procs then finish_reduce t;
  Blocked

(* --- synthesized collective bookends --- *)

(** Compute this rank's local partial — the same plan, cost formula and
    float-accumulation order as the compute half of {!exec_reduce} — and
    seed the slot state the rounds will combine into. *)
let exec_coll_part (t : t) (p : proc) idx (w : Ir.Instr.coll_work) =
  let r = w.Ir.Instr.cw_red in
  let cells = reduce_partial t p idx r in
  let partial = p.scratch.(0) in
  charge_kernel t p ~cells ~flops:r.Zpl.Prog.r_flops;
  let slot = w.Ir.Instr.cw_slot in
  p.cacc.(slot) <- partial;
  match w.Ir.Instr.cw_alg with
  | Ir.Coll.Ring ->
      (* rank 0 heads the chain: seed with the identity so the chain
         reproduces the opaque fold bit for bit *)
      if p.rank = 0 then
        p.cacc.(slot) <-
          Runtime.Reduce.apply r.Zpl.Prog.r_op
            (Runtime.Reduce.identity r.Zpl.Prog.r_op)
            partial
  | Ir.Coll.Dissem -> p.cvals.(slot).(p.rank) <- partial
  | Ir.Coll.Binomial | Ir.Coll.Recdouble -> ()

(** Publish the finished value into the replicated scalar. For
    dissemination every rank folds the allgathered partials locally in
    rank order seeded with the identity — the opaque fold order — so all
    ranks (and the opaque path) agree bitwise; the other algorithms
    already hold the finished value in the slot accumulator. *)
let exec_coll_fin (t : t) (p : proc) (w : Ir.Instr.coll_work) =
  let r = w.Ir.Instr.cw_red in
  let slot = w.Ir.Instr.cw_slot in
  let value =
    match w.Ir.Instr.cw_alg with
    | Ir.Coll.Dissem ->
        let vals = p.cvals.(slot) in
        let v = ref (Runtime.Reduce.identity r.Zpl.Prog.r_op) in
        for src = 0 to Array.length vals - 1 do
          v := Runtime.Reduce.apply r.Zpl.Prog.r_op !v vals.(src)
        done;
        !v
    | Ir.Coll.Ring | Ir.Coll.Binomial | Ir.Coll.Recdouble -> p.cacc.(slot)
  in
  let lhs = Runtime.Values.slot t.shared.p_scalars r.Zpl.Prog.r_lhs in
  p.slots.Runtime.Values.f.(lhs) <- value;
  charge_scalar t p;
  p.stats.Stats.reduces <- p.stats.Stats.reduces + 1

(* --- main dispatch --- *)

(** Count one completed execution of op [p.pc]: against the run's
    work budget and, on rank 0, in {!t.ops_run}. Every processor's last
    execution is its [FHalt], after all its cells are charged, so the
    budget sees the run's whole work. *)
let count_done (t : t) (p : proc) =
  p.instrs <- p.instrs + 1;
  t.work <- t.work + 1;
  if t.work > t.limit then raise (Runtime.Budget.Exceeded t.limit);
  if p.rank = 0 then t.ops_run.(p.pc) <- t.ops_run.(p.pc) + 1

let exec_one (t : t) (p : proc) : step =
  match t.flat.Ir.Flat.ops.(p.pc) with
  | Ir.Flat.FHalt ->
      count_done t p;
      p.halted <- true;
      p.stats.Stats.times.Stats.finish <- p.time.fv;
      Halted
  | Ir.Flat.FKernel a ->
      count_done t p;
      exec_kernel t p p.pc a;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FScalar _ ->
      count_done t p;
      (match t.kern.(p.rank).(p.pc) with
      | KScalar f -> f p.slots
      | _ -> assert false);
      charge_scalar t p;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FJump target ->
      count_done t p;
      p.pc <- target;
      Continue
  | Ir.Flat.FJumpIfNot (_, target) ->
      count_done t p;
      charge_scalar t p;
      (match t.kern.(p.rank).(p.pc) with
      | KCond f -> p.pc <- (if f p.slots then p.pc + 1 else target)
      | _ -> assert false);
      Continue
  | Ir.Flat.FReduce r ->
      (* a rank that has arrived can still be woken by a message for a
         transfer whose SR precedes the reduction and whose DN follows
         it; it must keep waiting, not arrive again *)
      if p.wait_kind = wk_reduce then Blocked
      else begin
        count_done t p;
        exec_reduce t p p.pc r
      end
  | Ir.Flat.FCollPart w ->
      count_done t p;
      exec_coll_part t p p.pc w;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FCollFin w ->
      count_done t p;
      exec_coll_fin t p w;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FComm (call, xfer) -> (
      match exec_comm t p call xfer with
      | Continue ->
          (* counted only on completion: a blocked call re-executes when
             woken, and the number of attempts depends on the wake order,
             not on the program *)
          count_done t p;
          p.pc <- p.pc + 1;
          Continue
      | other -> other)

(* The drain loop is top-level recursion, not a local [let rec]
   closure: a closure would be allocated on every processor wake, which
   the zero-allocation comm path forbids. *)
let rec exec_until_blocked (t : t) (p : proc) =
  match exec_one t p with
  | Continue -> exec_until_blocked t p
  | Blocked | Halted -> ()

let run_proc (t : t) (p : proc) = if not p.halted then exec_until_blocked t p

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  time : float;  (** makespan over processors *)
  stats : Stats.t;
  engine : t;
}

let rec drain_serial (t : t) =
  let r = take_runnable t in
  if r >= 0 then begin
    let p = t.procs.(r) in
    p.queued <- false;
    run_proc t p;
    drain_serial t
  end

let run (t : t) : result =
  Array.iter (fun (p : proc) -> wake t p) t.procs;
  (* wake marks queued; initial procs are not waiting *)
  drain_serial t;
  (match
     Array.find_opt (fun (p : proc) -> not p.halted) t.procs
   with
  | Some p ->
      let why =
        if p.wait_kind = wk_data || p.wait_kind = wk_tokens then begin
          let x = p.wait_arg in
          let wp = t.wplans.(x).(p.rank) in
          let data = p.wait_kind = wk_data in
          Printf.sprintf "proc %d waiting for %s of transfer %s from %s"
            p.rank
            (if data then "data" else "tokens")
            (Ir.Transfer.describe t.flat.Ir.Flat.prog
               t.flat.Ir.Flat.transfers.(x))
            (missing_partners ~data (if data then wp.w_recv else wp.w_send)
            |> List.map string_of_int |> String.concat ",")
        end
        else if p.wait_kind = wk_reduce then
          Printf.sprintf "proc %d waiting in the reduction at pc %d" p.rank
            p.pc
        else Printf.sprintf "proc %d stopped at pc %d" p.rank p.pc
      in
      raise (Deadlock why)
  | None -> ());
  t.stats.Stats.instructions <-
    Array.fold_left (fun n (p : proc) -> n + p.instrs) 0 t.procs;
  Array.iteri (fun i (p : proc) -> t.stats.Stats.procs.(i) <- p.stats) t.procs;
  { time = Stats.makespan t.stats; stats = t.stats; engine = t }

(** Gather the distributed blocks of array [aid] into one global store
    (fringe cells ignored) — used to verify against the sequential
    oracle. Owned blocks are disjoint, so per-processor rectangle blits
    write each cell exactly once. *)
let gather (t : t) (aid : int) : Runtime.Store.t =
  let info = t.flat.Ir.Flat.prog.Zpl.Prog.arrays.(aid) in
  let global = Runtime.Store.make info ~owned:info.a_region ~fringe:0 in
  Array.iter
    (fun (p : proc) ->
      let s = p.stores.(aid) in
      let owned = Runtime.Store.owned s in
      if not (Zpl.Region.is_empty owned) then
        Runtime.Store.copy_rect ~src:s ~dst:global owned)
    t.procs;
  global

(** Scalars after the run (replicated; proc 0's copy). *)
let proc_env (t : t) (p : proc) : Runtime.Values.value array =
  Runtime.Values.read_all t.shared.p_scalars p.slots

let final_env (t : t) = proc_env t t.procs.(0)

(* accessors for tests and tools that inspect a finished engine *)

let procs (t : t) = t.procs
let proc_stores (p : proc) = p.stores
let topology (t : t) = t.topology

(** Per-link busy-until times after a run — all zeros (empty) under
    [Ideal]. Exposed for tests that assert occupancy stays sane (no
    negative/NaN entries, phantom boundary links never claimed). *)
let link_occupancy (t : t) : float array = Array.copy t.link_free

(** Staging-pool accounting over all send sides, fringe and collective
    round alike (receive sides alias the sender's pool): (buffers freshly
    allocated, acquires served from the freelists). The split depends on
    drain interleaving — a sender running ahead deepens its pools — so it
    is a runtime diagnostic, not part of the deterministic {!Stats.t}. *)
let pool_counts (t : t) : int * int =
  let fresh = ref 0 and reused = ref 0 in
  Array.iter
    (Array.iter (fun (wp : wplan) ->
         Array.iter
           (fun (s : wside) ->
             let f, r = Runtime.Wireplan.pool_stats s.w_chan.c_pool in
             fresh := !fresh + f;
             reused := !reused + r)
           wp.w_send))
    t.wplans;
  (!fresh, !reused)

(** Completed executions per flat op index after a run (counted on
    processor 0; control flow is replicated, so every processor's counts
    would be identical). [Ir.Flat.src_of_op] joins them back to
    structured positions — the measured activation counts static
    communication predictions are validated against. *)
let op_counts (t : t) : int array = Array.copy t.ops_run
