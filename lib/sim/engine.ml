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

    Adjacent kernel statements that pass {!Runtime.Kernel.can_join} are
    fused at {!plan} time: one region evaluation and one row traversal
    execute the whole group, while time and statistics are still charged
    statement by statement — reports do not change.

    {b Communication} is compiled at {!plan} time: every (transfer,
    processor, partner) side becomes a {!Runtime.Wireplan.t} — flat blit
    descriptors against the local stores — with all member-array pieces
    of one partner packed into a single staging buffer drawn from a
    per-side pool. Messages travel through dense ring mailboxes indexed
    by (source, transfer, kind), and every hot-path float lives in an
    all-float record or float array, so a steady-state communication
    activation allocates nothing: no payload lists, no closures, no
    boxed floats (regression-tested with [Gc.minor_words]). A staging
    buffer is acquired when the sender packs it — the send-time snapshot
    of the fringe — and returns to the {e sender's} pool only when the
    receiver unpacks it, so senders running ahead simply deepen the pool
    to the in-flight high-water mark. The tests check gathered results
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

(** One partner's share of a transfer on one processor, wire-compiled:
    the blit plan against this processor's own stores, and the staging
    pool buffers are drawn from. On send sides the pool is owned; on
    recv sides it aliases the matching sender's pool, so releasing a
    consumed buffer returns it to where the next send will look. *)
type wside = {
  w_partner : int;
  w_bytes : int;
  w_plan : Runtime.Wireplan.t;
  w_route : int array;  (** link ids to [w_partner]; [[||]] under ideal *)
  mutable w_pool : Runtime.Wireplan.pool;
}

type wplan = { w_recv : wside array; w_send : wside array }

(** One rank's side of one synthesized collective round
    ({!Ir.Coll.role}, frozen at {!plan} time): at most one send partner
    and one receive partner, [c_count] scalar values per message. The
    send pool is owned; the receive pool aliases the sender's, exactly
    like {!wside}. *)
type cside = {
  c_to : int;  (** send partner, or -1 *)
  c_from : int;  (** receive partner, or -1 *)
  c_count : int;  (** scalar values per message this round *)
  c_rto : int array;  (** link ids to [c_to] (round data) *)
  c_rfrom : int array;  (** link ids to [c_from] (rendezvous token) *)
  c_spool : Runtime.Wireplan.pool;
  mutable c_rpool : Runtime.Wireplan.pool;
}

(** Immutable blueprint of one {!wside}: the blit plan (compiled against
    shape-only stores, so it depends only on the layout, never on cell
    data) plus everything needed to mint the per-engine pool.
    [b_link] on receive sides is the index of the matching side in the
    sender's send array, resolved and validated once at {!plan} time; it
    is written during linking and frozen thereafter. *)
type wblue = {
  b_partner : int;
  b_bytes : int;
  b_cells : int;
  b_plan : Runtime.Wireplan.t;
  b_route : int array;  (** link ids to [b_partner]; [[||]] under ideal *)
  mutable b_link : int;
}

type wbpair = { b_recv : wblue array; b_send : wblue array }

(** Immutable blueprint of one {!cside}: the rank's role in a
    synthesized collective round ({!Ir.Coll.role}, frozen at plan
    time). *)
type cblue = {
  cb_to : int;
  cb_from : int;
  cb_count : int;
  cb_rto : int array;  (** link ids to [cb_to]; [[||]] under ideal *)
  cb_rfrom : int array;  (** link ids to [cb_from]; [[||]] under ideal *)
}

(** Compiled form of one flat op on one rank: store-agnostic
    {!Runtime.Kernel} plans, built eagerly at {!plan} time against
    shape-only stores. *)
type ckern =
  | KNone  (** op carries no kernel (control flow, comm, halt) *)
  | KAssign of Runtime.Kernel.plan
  | KReduce of Runtime.Kernel.rplan

type kprog = {
  k_ops : ckern array;  (** per op index *)
  k_fused : Runtime.Kernel.fplan option array;
      (** per op index: the fused plan of the group headed there (only
          at heads where [p_fuse_len] >= 2); [None] at a head means some
          member fell back to the per-point path and the group runs
          unfused through [k_ops] *)
  k_spec : Runtime.Kernel.envspec;
      (** workspace requirements of this rank's plans; {!of_plans}
          mints one {!Runtime.Kernel.env} per engine from it *)
}

(** Everything the engine needs that does not depend on run-time
    state: the compiled, immutable, shareable half of an engine. Two
    engines built from one [plans] value share these artifacts
    physically ([==]); each {!of_plans} call mints only the mutable
    half (stores, kernel workspaces, mailboxes, staging pools,
    statistics) and performs {e no kernel compilation} — the kernel
    programs in [p_kern] are store-agnostic and bind stores through a
    per-engine {!Runtime.Kernel.env}. *)
type plans = {
  p_flat : Ir.Flat.t;
  p_machine : Machine.Params.t;
  p_lib : Machine.Library.t;
  p_pr : int;
  p_pc : int;
  p_layout : Runtime.Layout.t;
  p_topology : Machine.Topology.t;
  p_fringe : int array;  (** per array id: fringe width *)
  p_nx : int;  (** number of transfers *)
  p_nslots : int;  (** collective slots *)
  p_dissem : bool array;  (** per slot: needs the allgathered partials *)
  p_wblue : wbpair array array;  (** [transfer id].(proc) *)
  p_colls : Ir.Coll.desc option array;  (** per transfer: collective tag *)
  p_cblue : cblue array array;  (** collective rounds: [transfer id].(proc) *)
  p_fuse_len : int array;
      (** per op index: length of the fused group starting there, or 0 *)
  p_refchecks : Runtime.Kernel.refs array;
      (** per op index: the rhs's (array, shift) reads, extracted once *)
  p_kern : kprog array;
      (** per rank: the compiled, store-agnostic kernel program of its
          geometry class. Ranks of one class share it physically; uneven
          block splits give other classes' stores different strides, so
          their flat shifts differ. *)
}

(* Blocked-state encoding. An option-of-variant would allocate on every
   block; two ints don't. The partner lists the old encoding carried are
   only needed for deadlock diagnostics and are recomputed there. *)
let wk_none = 0

let wk_data = 1 (* wait_arg = transfer id *)

let wk_tokens = 2 (* wait_arg = transfer id *)

let wk_reduce = 3 (* wait_arg = reduction sequence number *)

(** Mutable float cell. All-float records are stored flat, so
    [c.fv <- c.fv +. dt] is an unboxed load/add/store; a mutable float
    field in the mixed [proc] record would box every update. *)
type fcell = { mutable fv : float }

(** Ring mailbox of one (source, transfer, kind) slot: arrival times and
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

(** Shared sentinel for (source, transfer, kind) slots no plan delivers
    to; keeps the dense mailbox array total without per-slot rings. *)
let unused_mbox : mbox =
  { mb_arr = [||]; mb_buf = [||]; mb_head = 0; mb_n = 0 }

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
  env : Runtime.Values.env;
  mutable wait_kind : int;  (** one of the [wk_*] codes *)
  mutable wait_arg : int;
  mutable halted : bool;
  mutable queued : bool;
  mutable instrs : int;  (** instructions executed by this processor *)
  ops_run : int array;
      (** per flat op index: completed executions on this processor.
          Communication calls count on completion only (like [instrs]),
          so an op's count is its activation count; control flow is
          replicated, so the counts are identical across processors —
          the join key static communication predictions are validated
          against (see {!op_counts}). *)
  posted : int array;  (** per transfer: outstanding posted receives *)
  send_done : float array;  (** per transfer: when the last send drained *)
  mutable reduce_seq : int;
  wmail : mbox array;  (** dense (src, xfer, kind) mailboxes *)
  scratch : float array;
      (** unboxed hot-path temporaries: [0] max-arrival accumulator
          (also {!block_until_acc}'s argument) and a reduction's local
          partial, [1] per-byte unpack rate *)
  cacc : float array;  (** per collective slot: running combine value *)
  cvals : float array array;
      (** per collective slot used by dissemination: the allgathered
          partials, indexed by source rank; [[||]] for other slots *)
  kenv : Runtime.Kernel.env;
      (** this rank's binding of its stores and scalar env to the shared
          kernel program's workspace spec *)
  clip : int array;
      (** the region of the statement being dispatched, (lo, hi) per
          dim, clipped in place (see {!clip_local}) *)
  clipped : Zpl.Region.t array;
      (** per op index: the region last handed to the kernels there,
          updated in place when the clip moves ([[||]] until first
          needed; see {!clipped_region}) *)
  stats : Stats.per_proc;
}

type reduce_slot = {
  mutable arrived : int;
  partials : float array;
  times : float array;
  mutable op : Zpl.Ast.redop;
  mutable lhs : int;
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
  nx : int;  (** number of transfers *)
  wplans : wplan array array;  (** [transfer id].(proc) *)
  colls : Ir.Coll.desc option array;  (** per transfer: its collective tag *)
  csides : cside array array;  (** collective rounds: [transfer id].(proc) *)
  runnable : int array;  (** ring; capacity = nprocs ([queued] dedups) *)
  mutable run_head : int;
  mutable run_len : int;
  reduce_slots : (int, reduce_slot) Hashtbl.t;
  stats : Stats.t;
  limit : int;
  kern : kprog array;  (** per rank: shared compiled kernel programs *)
  fuse_len : int array;
      (** per op index: length of the fused group starting there, or 0 *)
  refchecks : Runtime.Kernel.refs array;
      (** per op index: the rhs's (array, shift) reads, extracted once so
          the per-execution bounds check is allocation-free *)
}

exception Deadlock of string
exception Instruction_limit of int

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(** Compile the wire blueprints of one transfer: per processor, per
    partner, the blit descriptors against shape-only stores, whose owned
    boxes also give the pieces. *)
let build_wblue (layout : Runtime.Layout.t) (prog : Zpl.Prog.t)
    (x : Ir.Transfer.t) ~(shapes : Runtime.Store.t array array)
    ~(topo : Machine.Topology.t) ~pr ~pc : wbpair array =
  let owned q aid = Runtime.Store.owned shapes.(q).(aid) in
  let collect p dir =
    Array.of_list
      (List.map
         (fun (pp : Runtime.Halo.partner_pieces) ->
           { b_partner = pp.Runtime.Halo.pp_partner;
             b_bytes = 8 * pp.Runtime.Halo.pp_cells;
             b_cells = pp.Runtime.Halo.pp_cells;
             b_plan =
               Runtime.Wireplan.build ~stores:shapes.(p)
                 pp.Runtime.Halo.pp_rects;
             b_route =
               Machine.Topology.route topo ~pr ~pc ~src:p
                 ~dst:pp.Runtime.Halo.pp_partner;
             b_link = -1 })
         (Runtime.Halo.partner_sides ~owned layout prog
            ~arrays:x.Ir.Transfer.arrays ~off:x.Ir.Transfer.off ~p ~dir))
  in
  Array.init (Array.length shapes) (fun p ->
      { b_recv = collect p `Recv; b_send = collect p `Send })

(** Resolve every receive blueprint's [b_link] to the matching side in
    the sender's send array, and check that both ends compiled the same
    staging layout. Runs once at {!plan} time; {!of_plans} only follows
    the recorded indices. *)
let link_wblue (xi : int) (bp : wbpair array) =
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
              "Engine.plan: transfer %d: proc %d expects data from %d, \
               which plans no send back"
              xi p rb.b_partner;
          let sb = sender.b_send.(!link) in
          if
            Runtime.Wireplan.cells sb.b_plan
            <> Runtime.Wireplan.cells rb.b_plan
            || sb.b_bytes <> rb.b_bytes
          then
            Fmt.failwith
              "Engine.plan: transfer %d: procs %d and %d disagree on \
               the message layout (%d vs %d cells)"
              xi rb.b_partner p
              (Runtime.Wireplan.cells sb.b_plan)
              (Runtime.Wireplan.cells rb.b_plan);
          rb.b_link <- !link)
        pair.b_recv)
    bp

(** Index of the (source, transfer, kind) slot in a proc's dense mailbox
    array. *)
let wkey (t : t) ~src ~xfer kind_bit = (((src * t.nx) + xfer) * 2) + kind_bit

let kb_data = 0
let kb_token = 1

(** Greedy partition of maximal adjacent-[FKernel] runs into fused
    groups: a statement joins the current group while
    {!Runtime.Kernel.can_join} holds against every member. Entry [i] of
    the result is the length (>= 2) of the group headed at op [i], 0
    elsewhere. Jumps into the middle of a group are harmless — fusion
    only triggers when control reaches the head. *)
let fuse_groups (flat : Ir.Flat.t) : int array =
  let ops = flat.Ir.Flat.ops in
  let n = Array.length ops in
  let lens = Array.make n 0 in
  let arrays aid = flat.Ir.Flat.prog.Zpl.Prog.arrays.(aid) in
  let i = ref 0 in
  while !i < n do
    match ops.(!i) with
    | Ir.Flat.FKernel _ ->
        let start = !i in
        let group = ref [] in
        let stop = ref false in
        while (not !stop) && !i < n do
          match ops.(!i) with
          | Ir.Flat.FKernel a
            when Runtime.Kernel.can_join ~arrays (List.rev !group) a ->
              group := a :: !group;
              incr i
          | _ -> stop := true
        done;
        let glen = !i - start in
        if glen >= 2 then lens.(start) <- glen;
        if glen = 0 then incr i
    | _ -> incr i
  done;
  lens

let plan ?(row_path = true) ?(fuse = true) ?(cse = true)
    ?(topology = Machine.Topology.Ideal) ~(machine : Machine.Params.t)
    ~(lib : Machine.Library.t) ~pr ~pc (flat : Ir.Flat.t) : plans =
  let prog = flat.Ir.Flat.prog in
  let layout = Runtime.Layout.for_program ~pr ~pc prog in
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
  let fringe = Zpl.Prog.fringe_widths prog in
  let colls =
    Array.map (fun (x : Ir.Transfer.t) -> x.Ir.Transfer.coll)
      flat.Ir.Flat.transfers
  in
  Array.iter
    (function
      | Some (d : Ir.Coll.desc) ->
          if d.Ir.Coll.cl_nprocs <> nprocs then
            Fmt.invalid_arg
              "Engine.plan: collective round %s was synthesized for %d \
               processors, but the engine mesh is %dx%d (%d) — recompile for \
               this mesh"
              (Ir.Coll.describe d) d.Ir.Coll.cl_nprocs pr pc nprocs
      | None -> ())
    colls;
  let nslots = Ir.Flat.coll_slots flat in
  (* slots whose algorithm gathers raw partials (dissemination) need the
     per-rank value array; derived from ops too, for the zero-round
     one-processor case *)
  let dissem_slot = Array.make nslots false in
  Array.iter
    (function
      | Some (d : Ir.Coll.desc) when d.Ir.Coll.cl_alg = Ir.Coll.Dissem ->
          dissem_slot.(d.Ir.Coll.cl_slot) <- true
      | _ -> ())
    colls;
  Array.iter
    (function
      | Ir.Flat.FCollPart w | Ir.Flat.FCollFin w ->
          if w.Ir.Instr.cw_alg = Ir.Coll.Dissem then
            dissem_slot.(w.Ir.Instr.cw_slot) <- true
      | _ -> ())
    flat.Ir.Flat.ops;
  (* blit plans and row kernels only read shapes and strides, so
     compile both against data-free stores — no cell allocation at
     plan time. The geometry (rank, strides, allocation) is identical
     to the real stores {!of_plans} mints, which is what makes the
     compiled flat shifts valid against them. *)
  let shapes =
    Array.init nprocs (fun rank ->
        Array.map
          (fun (info : Zpl.Prog.array_info) ->
            Runtime.Store.make_shape info
              ~owned:(Runtime.Halo.owned_of layout info rank)
              ~fringe:fringe.(info.a_id))
          prog.Zpl.Prog.arrays)
  in
  let p_wblue =
    Array.map
      (fun (x : Ir.Transfer.t) ->
        if Ir.Transfer.is_coll x then
          Array.init nprocs (fun _ -> { b_recv = [||]; b_send = [||] })
        else build_wblue layout prog x ~shapes ~topo:topology ~pr ~pc)
      flat.Ir.Flat.transfers
  in
  Array.iteri link_wblue p_wblue;
  let p_cblue =
    Array.map
      (fun (x : Ir.Transfer.t) ->
        match x.Ir.Transfer.coll with
        | None -> [||]
        | Some d ->
            Array.init nprocs (fun rank ->
                let r = Ir.Coll.role d ~rank in
                let route dst =
                  if dst < 0 then [||]
                  else
                    Machine.Topology.route topology ~pr ~pc ~src:rank ~dst
                in
                { cb_to = r.Ir.Coll.r_to;
                  cb_from = r.Ir.Coll.r_from;
                  cb_count = r.Ir.Coll.r_count;
                  cb_rto = route r.Ir.Coll.r_to;
                  cb_rfrom = route r.Ir.Coll.r_from }))
      flat.Ir.Flat.transfers
  in
  let ops = flat.Ir.Flat.ops in
  let nops = Array.length ops in
  let fuse_len =
    if fuse && row_path then fuse_groups flat else Array.make nops 0
  in
  (* Store-agnostic kernel compilation at plan time. Engines minted
     from this plan set never compile kernels — they bind stores through
     a per-engine env. Individual plans are built even for fused-group
     members: they back the unfused fallback when a group's fused plan
     is [None], and mid-group jump targets. *)
  let compile_kprog (shape : Runtime.Store.t array) =
    let ws = Runtime.Kernel.make_ws () in
    let rc = { Runtime.Kernel.rstore = (fun aid -> shape.(aid)); rws = ws } in
    let k_ops =
      Array.map
        (function
          | Ir.Flat.FKernel a ->
              KAssign (Runtime.Kernel.plan_assign ~row:row_path rc a)
          | Ir.Flat.FReduce r ->
              KReduce (Runtime.Kernel.plan_reduce ~row:row_path rc r)
          | Ir.Flat.FCollPart w ->
              KReduce
                (Runtime.Kernel.plan_reduce ~row:row_path rc w.Ir.Instr.cw_red)
          | _ -> KNone)
        ops
    in
    let k_fused = Array.make nops None in
    Array.iteri
      (fun idx glen ->
        if glen >= 2 then begin
          let stmts =
            Array.init glen (fun k ->
                match ops.(idx + k) with
                | Ir.Flat.FKernel a -> a
                | _ -> assert false)
          in
          k_fused.(idx) <- Runtime.Kernel.plan_fused ~cse rc stmts
        end)
      fuse_len;
    { k_ops; k_fused; k_spec = Runtime.Kernel.ws_spec ws }
  in
  (* The kernel compiler reads only each array's rank and strides from
     its store, so ranks whose stores agree on that whole vector — one
     geometry class — share one program, compiled for the first rank of
     the class. *)
  let classes = Hashtbl.create 16 in
  let p_kern =
    Array.map
      (fun shape ->
        let geom =
          Array.map
            (fun s -> Array.init (Runtime.Store.rank s) (Runtime.Store.stride s))
            shape
        in
        match Hashtbl.find_opt classes geom with
        | Some k -> k
        | None ->
            let k = compile_kprog shape in
            Hashtbl.add classes geom k;
            k)
      shapes
  in
  { p_flat = flat;
    p_machine = machine;
    p_lib = lib;
    p_pr = pr;
    p_pc = pc;
    p_layout = layout;
    p_topology = topology;
    p_fringe = fringe;
    p_nx = Array.length flat.Ir.Flat.transfers;
    p_nslots = nslots;
    p_dissem = dissem_slot;
    p_wblue;
    p_colls = colls;
    p_cblue;
    p_fuse_len = fuse_len;
    p_refchecks =
      Array.map
        (function
          | Ir.Flat.FKernel a -> Runtime.Kernel.refs_of a.Zpl.Prog.rhs
          | Ir.Flat.FReduce r -> Runtime.Kernel.refs_of r.Zpl.Prog.r_rhs
          | Ir.Flat.FCollPart w ->
              Runtime.Kernel.refs_of w.Ir.Instr.cw_red.Zpl.Prog.r_rhs
          | _ -> [||])
        ops;
    p_kern }

let of_plans ?(limit = 1_000_000_000) (sp : plans) : t =
  let flat = sp.p_flat in
  let prog = flat.Ir.Flat.prog in
  let layout = sp.p_layout in
  let topo_ideal = sp.p_topology = Machine.Topology.Ideal in
  let nprocs = Runtime.Layout.nprocs layout in
  let nx = sp.p_nx in
  let nslots = sp.p_nslots in
  let procs =
    Array.init nprocs (fun rank ->
        let stores =
          Array.map
            (fun (info : Zpl.Prog.array_info) ->
              Runtime.Store.make info
                ~owned:(Runtime.Halo.owned_of layout info rank)
                ~fringe:sp.p_fringe.(info.a_id))
            prog.Zpl.Prog.arrays
        in
        let env = Runtime.Values.make_env prog in
        let kenv =
          Runtime.Kernel.make_env ~stores
            ~scalar:(fun id -> Runtime.Values.as_float env.(id))
            sp.p_kern.(rank).k_spec
        in
        let box = Runtime.Layout.box layout rank in
        { rank;
          box_lo0 = box.(0).Zpl.Region.lo;
          box_hi0 = box.(0).Zpl.Region.hi;
          box_lo1 = box.(1).Zpl.Region.lo;
          box_hi1 = box.(1).Zpl.Region.hi;
          pc = 0; time = { fv = 0.0 }; stores;
          env;
          wait_kind = wk_none; wait_arg = 0;
          halted = false; queued = false;
          instrs = 0;
          ops_run = Array.make (Array.length flat.Ir.Flat.ops) 0;
          posted = Array.make nx 0;
          send_done = Array.make nx 0.0;
          reduce_seq = 0;
          wmail = Array.make (nprocs * nx * 2) unused_mbox;
          scratch = Array.make 2 0.0;
          cacc = Array.make nslots 0.0;
          cvals =
            Array.init nslots (fun s ->
                if sp.p_dissem.(s) then Array.make nprocs 0.0 else [||]);
          kenv;
          clip = Array.make 6 0;
          clipped = Array.make (Array.length flat.Ir.Flat.ops) [||];
          stats = Stats.fresh_proc () })
  in
  (* fringe sides: shared blit plans, per-engine staging pools; receive
     pools alias the matching sender's pool (resolved at plan time into
     [b_link]), so a consumed buffer is released to where the next send
     acquires *)
  let wplans =
    Array.map
      (fun (bp : wbpair array) ->
        let mk (b : wblue) =
          { w_partner = b.b_partner;
            w_bytes = b.b_bytes;
            w_plan = b.b_plan;
            w_route = b.b_route;
            w_pool = Runtime.Wireplan.make_pool ~cells:b.b_cells }
        in
        let sides =
          Array.map
            (fun (pair : wbpair) ->
              { w_recv = Array.map mk pair.b_recv;
                w_send = Array.map mk pair.b_send })
            bp
        in
        Array.iteri
          (fun p (pair : wbpair) ->
            Array.iteri
              (fun i (rb : wblue) ->
                sides.(p).w_recv.(i).w_pool <-
                  sides.(rb.b_partner).w_send.(rb.b_link).w_pool)
              pair.b_recv)
          bp;
        sides)
      sp.p_wblue
  in
  (* collective sides: same pool-aliasing discipline *)
  let csides =
    Array.map
      (fun (cb : cblue array) ->
        let sides =
          Array.map
            (fun (b : cblue) ->
              let pool = Runtime.Wireplan.make_pool ~cells:b.cb_count in
              { c_to = b.cb_to;
                c_from = b.cb_from;
                c_count = b.cb_count;
                c_rto = b.cb_rto;
                c_rfrom = b.cb_rfrom;
                c_spool = pool;
                c_rpool = pool })
            cb
        in
        Array.iter
          (fun s ->
            if s.c_from >= 0 then begin
              let sender = sides.(s.c_from) in
              assert (sender.c_to >= 0 && sender.c_count = s.c_count);
              s.c_rpool <- sender.c_spool
            end)
          sides;
        sides)
      sp.p_cblue
  in
  let t =
    { shared = sp;
      flat;
      machine = sp.p_machine;
      lib = sp.p_lib;
      layout;
      topology = sp.p_topology;
      topo_ideal;
      link_free =
        (if topo_ideal then [||]
         else
           Array.make
             (Machine.Topology.nlinks ~pr:sp.p_pr ~pc:sp.p_pc)
             0.0);
      procs;
      nx;
      wplans;
      colls = sp.p_colls;
      csides;
      runnable = Array.make (max 1 nprocs) 0;
      run_head = 0;
      run_len = 0;
      reduce_slots = Hashtbl.create 8;
      stats = Stats.make nprocs;
      limit;
      kern = sp.p_kern;
      fuse_len = sp.p_fuse_len;
      refchecks = sp.p_refchecks }
  in
  (* materialize exactly the mailbox slots some plan delivers to: data
     flows sender -> receiver, tokens receiver -> sender *)
  Array.iteri
    (fun xi wp ->
      Array.iteri
        (fun p plan ->
          Array.iter
            (fun (s : wside) ->
              procs.(p).wmail.(wkey t ~src:s.w_partner ~xfer:xi kb_data) <-
                fresh_mbox ())
            plan.w_recv;
          Array.iter
            (fun (s : wside) ->
              procs.(p).wmail.(wkey t ~src:s.w_partner ~xfer:xi kb_token) <-
                fresh_mbox ())
            plan.w_send)
        wp)
    wplans;
  Array.iteri
    (fun xi sides ->
      Array.iteri
        (fun p (s : cside) ->
          if s.c_from >= 0 then
            procs.(p).wmail.(wkey t ~src:s.c_from ~xfer:xi kb_data) <-
              fresh_mbox ();
          if s.c_to >= 0 then
            procs.(p).wmail.(wkey t ~src:s.c_to ~xfer:xi kb_token) <-
              fresh_mbox ())
        sides)
    csides;
  t

let shared_plans (t : t) = t.shared

let kernel_classes (sp : plans) =
  Array.fold_left
    (fun seen k -> if List.memq k seen then seen else k :: seen)
    [] sp.p_kern
  |> List.length

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
let rec all_arrived (t : t) (p : proc) ~xfer ~kind_bit (sides : wside array) i =
  i >= Array.length sides
  || (p.wmail.(wkey t ~src:sides.(i).w_partner ~xfer kind_bit).mb_n > 0
     && all_arrived t p ~xfer ~kind_bit sides (i + 1))

(** Partners with no pending message — deadlock diagnostics only. *)
let missing_partners (t : t) (p : proc) ~xfer ~kind_bit (sides : wside array) =
  Array.to_list sides
  |> List.filter_map (fun (s : wside) ->
         if p.wmail.(wkey t ~src:s.w_partner ~xfer kind_bit).mb_n = 0 then
           Some s.w_partner
         else None)

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
    directed-link sequence), departing at [from_time]: at each hop the
    message claims the link at [max (head so far) (link free)], holds it
    for the transfer time, and pays one wire latency — store-and-forward
    with per-link serialization. Mutates {!t.link_free}; link grants
    follow call order, which the serial drain makes deterministic.
    Callers add the library's messaging latency (msg or token) on top,
    exactly as the flat model does. Never called under [Ideal] (routes
    are empty there anyway), so the zero-allocation guarantee of the
    default configuration is unaffected by this helper's boxed floats. *)
let route_arrival (t : t) ~(from_time : float) ~(bytes : float)
    (route : int array) : float =
  let occupy = bytes /. t.machine.Machine.Params.bandwidth in
  let hop = t.machine.Machine.Params.wire_latency +. occupy in
  let tm = ref from_time in
  for i = 0 to Array.length route - 1 do
    let l = Array.unsafe_get route i in
    if t.link_free.(l) > !tm then tm := t.link_free.(l);
    t.link_free.(l) <- !tm +. occupy;
    tm := !tm +. hop
  done;
  !tm

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

type step = Continue | Blocked | Halted

(* The compiled, store-agnostic kernel programs live in the shared
   [plans]; these lookups never compile anything. *)

let assign_plan (t : t) (p : proc) idx =
  match t.kern.(p.rank).k_ops.(idx) with
  | KAssign plan -> plan
  | KNone | KReduce _ -> assert false

let reduce_plan (t : t) (p : proc) idx =
  match t.kern.(p.rank).k_ops.(idx) with
  | KReduce plan -> plan
  | KNone | KAssign _ -> assert false

let fused_plan (t : t) (p : proc) idx = t.kern.(p.rank).k_fused.(idx)

(* --- kernel dispatch ---

   A statement's iteration region is clipped as ints in [p.clip]:
   its bounds evaluated under the rank's scalars, dims 0-1 cut to the
   partition box, and (for assignments) every dim cut to the lhs
   store's owned box. An empty clip — most ranks, on the single-row
   statements of a serialized sweep — goes straight to the zero-cell
   charge; a non-empty one reuses the op's last [Zpl.Region.t] while
   the clip repeats (always, for static regions). Kernel dispatch
   thus allocates only when a rank meets a new non-empty region. *)

let imax (a : int) b = if a > b then a else b
let imin (a : int) b = if a < b then a else b

(** Evaluate [dr] under [p]'s scalars into [p.clip] and cut dims 0-1 to
    the partition box: the ints [Zpl.Region.inter] of the evaluated
    region and the box would hold. Bounds are evaluated in
    {!Zpl.Prog.eval_dregion}'s order, so a bad scalar raises the same
    [Invalid_argument]. Returns the region's rank. *)
let clip_local (p : proc) (dr : Zpl.Prog.dregion) : int =
  let n = Array.length dr in
  let c = p.clip in
  for d = 0 to n - 1 do
    let lo, hi = dr.(d) in
    let h = Runtime.Values.eval_int_bound p.env hi in
    c.((2 * d) + 1) <- h;
    c.(2 * d) <- Runtime.Values.eval_int_bound p.env lo
  done;
  assert (n >= 2) (* statement regions have the rank of an array *);
  c.(0) <- imax c.(0) p.box_lo0;
  c.(1) <- imin c.(1) p.box_hi0;
  c.(2) <- imax c.(2) p.box_lo1;
  c.(3) <- imin c.(3) p.box_hi1;
  n

(** Cut every dim of the rank-[n] clip to [owned]. *)
let clip_owned (p : proc) n (owned : Zpl.Region.t) =
  if Zpl.Region.rank owned <> n then invalid_arg "Region.inter: rank mismatch";
  let c = p.clip in
  for d = 0 to n - 1 do
    let o = owned.(d) in
    c.(2 * d) <- imax c.(2 * d) o.Zpl.Region.lo;
    c.((2 * d) + 1) <- imin c.((2 * d) + 1) o.Zpl.Region.hi
  done

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

(** Charge the cost of one executed statement: the same formula — and
    the same float-accumulation order — whether it ran alone or fused. *)
let charge_kernel (t : t) (p : proc) ~cells ~flops =
  let dt =
    t.machine.Machine.Params.kernel_overhead
    +. (float_of_int (cells * flops) *. t.machine.Machine.Params.sec_per_flop)
  in
  p.time.fv <- p.time.fv +. dt;
  p.stats.Stats.times.Stats.compute <- p.stats.Stats.times.Stats.compute +. dt;
  p.stats.Stats.cells <- p.stats.Stats.cells + cells

let exec_kernel (t : t) (p : proc) idx (a : Zpl.Prog.assign_a) =
  let n = clip_local p a.region in
  let store = p.stores.(a.lhs) in
  clip_owned p n (Runtime.Store.owned store);
  let cells =
    if clip_cells p n = 0 then 0
    else begin
      let region = clipped_region p idx n in
      Runtime.Kernel.check_ref_bounds ~region ~stores:p.stores
        t.refchecks.(idx);
      Runtime.Kernel.exec_plan (assign_plan t p idx) ~env:p.kenv ~lhs:store
        ~region
    end
  in
  charge_kernel t p ~cells ~flops:a.flops

(** Member [k] of the fused group headed at op [idx]. *)
let fused_stmt (t : t) idx k : Zpl.Prog.assign_a =
  match t.flat.Ir.Flat.ops.(idx + k) with
  | Ir.Flat.FKernel a -> a
  | _ -> assert false

(** Execute the fused group of [glen] kernels headed at [idx]: one
    region evaluation and one row traversal, but per-statement cost and
    statistics identical to unfused execution. *)
let exec_fused_group (t : t) (p : proc) idx glen =
  match fused_plan t p idx with
  | None ->
      (* some member fell back to the per-point path: run unfused *)
      for k = 0 to glen - 1 do
        exec_kernel t p (idx + k) (fused_stmt t idx k)
      done
  | Some fp ->
      let a0 = fused_stmt t idx 0 in
      let n = clip_local p a0.region in
      clip_owned p n (Runtime.Store.owned p.stores.(a0.lhs));
      let cells = clip_cells p n in
      if cells > 0 then begin
        let region = clipped_region p idx n in
        for k = 0 to glen - 1 do
          Runtime.Kernel.check_ref_bounds ~region ~stores:p.stores
            t.refchecks.(idx + k)
        done;
        ignore (Runtime.Kernel.exec_fused fp ~env:p.kenv ~region)
      end;
      for k = 0 to glen - 1 do
        charge_kernel t p ~cells ~flops:(fused_stmt t idx k).flops
      done

(* --- communication calls --- *)

let charge_comm (p : proc) dt =
  p.time.fv <- p.time.fv +. dt;
  p.stats.Stats.times.Stats.comm_cpu <- p.stats.Stats.times.Stats.comm_cpu +. dt

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

(* --- fringe transfers: pooled staging buffers through ring mailboxes ---

   Nothing here allocates in steady state: costs are computed inline
   into all-float records and scratch slots, payloads are packed into
   pooled buffers, and queues are int-indexed rings. Keep helper calls
   float-free — an OCaml float argument or return is boxed at every
   non-inlined call. *)

let wire_send (t : t) (p : proc) ~xfer (s : wside) =
  let c = costs t in
  let m = t.machine in
  let buf = Runtime.Wireplan.acquire s.w_pool in
  Runtime.Wireplan.pack s.w_plan p.stores buf;
  let bytes = float_of_int s.w_bytes in
  let cpu = c.Machine.Params.sr_over +. (bytes *. c.Machine.Params.send_byte) in
  p.time.fv <- p.time.fv +. cpu;
  p.stats.Stats.times.Stats.comm_cpu <-
    p.stats.Stats.times.Stats.comm_cpu +. cpu;
  let q = t.procs.(s.w_partner) in
  let mb = q.wmail.(wkey t ~src:p.rank ~xfer kb_data) in
  let j = mbox_reserve mb in
  mb.mb_arr.(j) <-
    (if t.topo_ideal then
       p.time.fv
       +. (m.Machine.Params.wire_latency +. c.Machine.Params.msg_latency
          +. (bytes /. m.Machine.Params.bandwidth))
     else
       route_arrival t ~from_time:p.time.fv ~bytes s.w_route
       +. c.Machine.Params.msg_latency);
  mb.mb_buf.(j) <- buf;
  wake t q;
  let cand = p.time.fv +. (bytes /. m.Machine.Params.bandwidth) in
  if cand > p.send_done.(xfer) then p.send_done.(xfer) <- cand;
  p.stats.Stats.msgs_sent <- p.stats.Stats.msgs_sent + 1;
  p.stats.Stats.bytes_sent <- p.stats.Stats.bytes_sent + s.w_bytes

let exec_comm_wire (t : t) (p : proc) (call : Ir.Instr.call) (xfer : int) :
    step =
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
        p.time.fv <- p.time.fv +. c.Machine.Params.dr_over;
        p.stats.Stats.times.Stats.comm_cpu <-
          p.stats.Stats.times.Stats.comm_cpu +. c.Machine.Params.dr_over;
        let q = t.procs.(s.w_partner) in
        let mb = q.wmail.(wkey t ~src:p.rank ~xfer kb_token) in
        let j = mbox_reserve mb in
        mb.mb_arr.(j) <-
          (if t.topo_ideal then
             p.time.fv
             +. t.machine.Machine.Params.wire_latency
             +. c.Machine.Params.token_latency
           else
             route_arrival t ~from_time:p.time.fv ~bytes:0.0 s.w_route
             +. c.Machine.Params.token_latency);
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
      else if not (all_arrived t p ~xfer ~kind_bit:kb_token wp.w_send 0) then begin
        p.wait_kind <- wk_tokens;
        p.wait_arg <- xfer;
        Blocked
      end
      else begin
        p.wait_kind <- wk_none;
        p.scratch.(0) <- 0.0;
        for i = 0 to ns - 1 do
          let mb =
            p.wmail.(wkey t ~src:wp.w_send.(i).w_partner ~xfer kb_token)
          in
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
      else if not (all_arrived t p ~xfer ~kind_bit:kb_data wp.w_recv 0) then begin
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
          let mb =
            p.wmail.(wkey t ~src:wp.w_recv.(i).w_partner ~xfer kb_data)
          in
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
          let mb = p.wmail.(wkey t ~src:s.w_partner ~xfer kb_data) in
          let j = mbox_pop mb in
          let buf = mb.mb_buf.(j) in
          mb.mb_buf.(j) <- dummy_buf;
          let dt =
            c.Machine.Params.dn_over
            +. (float_of_int s.w_bytes *. p.scratch.(1))
          in
          p.time.fv <- p.time.fv +. dt;
          p.stats.Stats.times.Stats.comm_cpu <-
            p.stats.Stats.times.Stats.comm_cpu +. dt;
          Runtime.Wireplan.unpack s.w_plan p.stores buf;
          Runtime.Wireplan.release s.w_pool buf;
          p.stats.Stats.msgs_recv <- p.stats.Stats.msgs_recv + 1;
          p.stats.Stats.bytes_recv <- p.stats.Stats.bytes_recv + s.w_bytes
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

(* --- synthesized collective rounds ---

   The payload is a handful of synthesized scalars rather than array
   fringes, but rounds travel through the same dense mailboxes and
   pooled staging buffers. Charge formulas and their float-accumulation
   order are the fringe path's, with the round's [8 * count] bytes. *)

let coll_send (t : t) (p : proc) ~xfer (d : Ir.Coll.desc) (s : cside) =
  let c = costs t in
  let m = t.machine in
  let buf = Runtime.Wireplan.acquire s.c_spool in
  (match (d.Ir.Coll.cl_alg, d.Ir.Coll.cl_phase) with
  | Ir.Coll.Dissem, Ir.Coll.Gather ->
      (* the window of [count] consecutive partials ending at our rank,
         newest first: entry j originated at rank - j *)
      let vals = p.cvals.(d.Ir.Coll.cl_slot) in
      let np = d.Ir.Coll.cl_nprocs in
      for j = 0 to s.c_count - 1 do
        Bigarray.Array1.unsafe_set buf j
          vals.((((p.rank - j) mod np) + np) mod np)
      done
  | _ -> Bigarray.Array1.unsafe_set buf 0 p.cacc.(d.Ir.Coll.cl_slot));
  let bytes = float_of_int (8 * s.c_count) in
  let cpu = c.Machine.Params.sr_over +. (bytes *. c.Machine.Params.send_byte) in
  p.time.fv <- p.time.fv +. cpu;
  p.stats.Stats.times.Stats.comm_cpu <-
    p.stats.Stats.times.Stats.comm_cpu +. cpu;
  let q = t.procs.(s.c_to) in
  let mb = q.wmail.(wkey t ~src:p.rank ~xfer kb_data) in
  let j = mbox_reserve mb in
  mb.mb_arr.(j) <-
    (if t.topo_ideal then
       p.time.fv
       +. (m.Machine.Params.wire_latency +. c.Machine.Params.msg_latency
          +. (bytes /. m.Machine.Params.bandwidth))
     else
       route_arrival t ~from_time:p.time.fv ~bytes s.c_rto
       +. c.Machine.Params.msg_latency);
  mb.mb_buf.(j) <- buf;
  wake t q;
  let cand = p.time.fv +. (bytes /. m.Machine.Params.bandwidth) in
  if cand > p.send_done.(xfer) then p.send_done.(xfer) <- cand;
  p.stats.Stats.msgs_sent <- p.stats.Stats.msgs_sent + 1;
  p.stats.Stats.bytes_sent <- p.stats.Stats.bytes_sent + (8 * s.c_count)

(** Fold the received round payload into this rank's collective state.
    The combine expressions are fixed per (algorithm, phase) — see
    {!Ir.Coll} for why each choice keeps the result bit-identical across
    ranks. *)
let coll_combine (p : proc) (d : Ir.Coll.desc) (s : cside)
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
      if s.c_from > p.rank then
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
      for j = 0 to s.c_count - 1 do
        vals.((((s.c_from - j) mod np) + np) mod np) <-
          Bigarray.Array1.unsafe_get buf j
      done
  | _ -> assert false (* no role delivers data in these (alg, phase) *)

let exec_comm_coll (t : t) (p : proc) (call : Ir.Instr.call) (xfer : int)
    (d : Ir.Coll.desc) : step =
  let s = t.csides.(xfer).(p.rank) in
  let c = costs t in
  match Machine.Library.semantics t.lib.Machine.Library.kind call with
  | Machine.Library.No_op -> Continue
  | Machine.Library.Post_recv ->
      if s.c_from >= 0 then begin
        charge_comm p c.Machine.Params.dr_over;
        p.posted.(xfer) <- p.posted.(xfer) + 1
      end;
      Continue
  | Machine.Library.Notify_ready ->
      if s.c_from >= 0 then begin
        charge_comm p c.Machine.Params.dr_over;
        let q = t.procs.(s.c_from) in
        let mb = q.wmail.(wkey t ~src:p.rank ~xfer kb_token) in
        let j = mbox_reserve mb in
        mb.mb_arr.(j) <-
          (if t.topo_ideal then
             p.time.fv
             +. t.machine.Machine.Params.wire_latency
             +. c.Machine.Params.token_latency
           else
             route_arrival t ~from_time:p.time.fv ~bytes:0.0 s.c_rfrom
             +. c.Machine.Params.token_latency);
        mb.mb_buf.(j) <- dummy_buf;
        wake t q
      end;
      Continue
  | Machine.Library.Send_buffered ->
      if s.c_to >= 0 then begin
        coll_send t p ~xfer d s;
        p.stats.Stats.xfers_sent <- p.stats.Stats.xfers_sent + 1
      end;
      Continue
  | Machine.Library.Send_rendezvous ->
      if s.c_to < 0 then Continue
      else begin
        let mb = p.wmail.(wkey t ~src:s.c_to ~xfer kb_token) in
        if mb.mb_n = 0 then begin
          p.wait_kind <- wk_tokens;
          p.wait_arg <- xfer;
          Blocked
        end
        else begin
          p.wait_kind <- wk_none;
          let j = mbox_pop mb in
          p.scratch.(0) <- mb.mb_arr.(j);
          block_until_acc p;
          coll_send t p ~xfer d s;
          p.stats.Stats.xfers_sent <- p.stats.Stats.xfers_sent + 1;
          Continue
        end
      end
  | Machine.Library.Wait_data ->
      if s.c_from < 0 then Continue
      else begin
        let mb = p.wmail.(wkey t ~src:s.c_from ~xfer kb_data) in
        if mb.mb_n = 0 then begin
          p.wait_kind <- wk_data;
          p.wait_arg <- xfer;
          Blocked
        end
        else begin
          p.wait_kind <- wk_none;
          let j = mbox_pop mb in
          p.scratch.(0) <- mb.mb_arr.(j);
          block_until_acc p;
          if p.posted.(xfer) > 0 then begin
            p.posted.(xfer) <- p.posted.(xfer) - 1;
            p.scratch.(1) <- 0.0
          end
          else if Machine.Library.deposits_directly t.lib.Machine.Library.kind
          then p.scratch.(1) <- 0.0
          else p.scratch.(1) <- c.Machine.Params.recv_byte;
          let buf = mb.mb_buf.(j) in
          mb.mb_buf.(j) <- dummy_buf;
          let dt =
            c.Machine.Params.dn_over
            +. (float_of_int (8 * s.c_count) *. p.scratch.(1))
          in
          p.time.fv <- p.time.fv +. dt;
          p.stats.Stats.times.Stats.comm_cpu <-
            p.stats.Stats.times.Stats.comm_cpu +. dt;
          coll_combine p d s buf;
          Runtime.Wireplan.release s.c_rpool buf;
          p.stats.Stats.msgs_recv <- p.stats.Stats.msgs_recv + 1;
          p.stats.Stats.bytes_recv <-
            p.stats.Stats.bytes_recv + (8 * s.c_count);
          p.stats.Stats.xfers_recv <- p.stats.Stats.xfers_recv + 1;
          Continue
        end
      end
  | Machine.Library.Wait_send_done ->
      if s.c_to >= 0 then begin
        p.scratch.(0) <- p.send_done.(xfer);
        block_until_acc p;
        charge_comm p c.Machine.Params.sv_over
      end;
      Continue

let exec_comm (t : t) (p : proc) (call : Ir.Instr.call) (xfer : int) : step =
  match t.colls.(xfer) with
  | Some d -> exec_comm_coll t p call xfer d
  | None -> exec_comm_wire t p call xfer

(* --- collective reduction --- *)

let finish_reduce (t : t) seq (slot : reduce_slot) =
  let n = Array.length t.procs in
  let value = ref (Runtime.Reduce.identity slot.op) in
  for r = 0 to n - 1 do
    value := Runtime.Reduce.apply slot.op !value slot.partials.(r)
  done;
  let arrive = Array.fold_left Float.max 0.0 slot.times in
  let finish =
    arrive +. (float_of_int (reduce_stages t) *. reduce_stage_cost t)
  in
  Array.iter
    (fun (q : proc) ->
      q.stats.Stats.times.Stats.wait <-
        q.stats.Stats.times.Stats.wait +. Float.max 0.0 (finish -. q.time.fv);
      q.time.fv <- Float.max q.time.fv finish;
      q.env.(slot.lhs) <- Runtime.Values.VFloat !value;
      q.stats.Stats.reduces <- q.stats.Stats.reduces + 1;
      q.wait_kind <- wk_none;
      q.pc <- q.pc + 1;
      wake t q)
    t.procs;
  Hashtbl.remove t.reduce_slots seq

(** This rank's partial of the reduction at op [idx] over its local
    part of [r]'s region (dims 0-1 cut to the partition box), and the
    cells it reduced: the identity and 0 when that part is empty. The
    partial travels through [p.scratch.(0)] so no float is boxed. *)
let reduce_partial (t : t) (p : proc) idx (r : Zpl.Prog.reduce_s) : int =
  let n = clip_local p r.r_region in
  let cells = clip_cells p n in
  if cells = 0 then p.scratch.(0) <- Runtime.Reduce.identity r.r_op
  else begin
    let region = clipped_region p idx n in
    Runtime.Kernel.check_ref_bounds ~region ~stores:p.stores
      t.refchecks.(idx);
    p.scratch.(0) <-
      Runtime.Kernel.exec_rplan (reduce_plan t p idx) ~env:p.kenv ~region
        r.r_op
  end;
  cells

let exec_reduce (t : t) (p : proc) idx (r : Zpl.Prog.reduce_s) : step =
  let cells = reduce_partial t p idx r in
  let partial = p.scratch.(0) in
  let dt =
    t.machine.Machine.Params.kernel_overhead
    +. (float_of_int (cells * r.r_flops) *. t.machine.Machine.Params.sec_per_flop)
  in
  p.time.fv <- p.time.fv +. dt;
  p.stats.Stats.times.Stats.compute <- p.stats.Stats.times.Stats.compute +. dt;
  p.stats.Stats.cells <- p.stats.Stats.cells + cells;
  let seq = p.reduce_seq in
  p.reduce_seq <- seq + 1;
  let slot =
    match Hashtbl.find_opt t.reduce_slots seq with
    | Some s -> s
    | None ->
        let s =
          { arrived = 0;
            partials = Array.make (Array.length t.procs) 0.0;
            times = Array.make (Array.length t.procs) 0.0;
            op = r.r_op;
            lhs = r.r_lhs }
        in
        Hashtbl.replace t.reduce_slots seq s;
        s
  in
  slot.partials.(p.rank) <- partial;
  slot.times.(p.rank) <- p.time.fv;
  slot.arrived <- slot.arrived + 1;
  p.wait_kind <- wk_reduce;
  p.wait_arg <- seq;
  if slot.arrived = Array.length t.procs then finish_reduce t seq slot;
  Blocked

(* --- synthesized collective bookends --- *)

(** Compute this rank's local partial — the same plan, cost formula and
    float-accumulation order as the compute half of {!exec_reduce} — and
    seed the slot state the rounds will combine into. *)
let exec_coll_part (t : t) (p : proc) idx (w : Ir.Instr.coll_work) =
  let r = w.Ir.Instr.cw_red in
  let cells = reduce_partial t p idx r in
  let partial = p.scratch.(0) in
  let dt =
    t.machine.Machine.Params.kernel_overhead
    +. (float_of_int (cells * r.Zpl.Prog.r_flops)
       *. t.machine.Machine.Params.sec_per_flop)
  in
  p.time.fv <- p.time.fv +. dt;
  p.stats.Stats.times.Stats.compute <- p.stats.Stats.times.Stats.compute +. dt;
  p.stats.Stats.cells <- p.stats.Stats.cells + cells;
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
  p.env.(r.Zpl.Prog.r_lhs) <- Runtime.Values.VFloat value;
  p.time.fv <- p.time.fv +. t.machine.Machine.Params.scalar_op_cost;
  p.stats.Stats.reduces <- p.stats.Stats.reduces + 1

(* --- main dispatch --- *)

(** Count [k] executed instructions against [p]'s budget. The limit is
    per processor, so a runaway processor trips it however the drain
    interleaves the others. *)
let count_instrs (t : t) (p : proc) k =
  p.instrs <- p.instrs + k;
  if p.instrs > t.limit then raise (Instruction_limit t.limit)

(** Record one completed execution of op [idx] — same completion-only
    discipline as {!count_instrs}, but per op index. *)
let count_op (p : proc) idx = p.ops_run.(idx) <- p.ops_run.(idx) + 1

let exec_one (t : t) (p : proc) : step =
  match t.flat.Ir.Flat.ops.(p.pc) with
  | Ir.Flat.FHalt ->
      count_instrs t p 1;
      count_op p p.pc;
      p.halted <- true;
      p.stats.Stats.times.Stats.finish <- p.time.fv;
      Halted
  | Ir.Flat.FKernel a ->
      let glen = t.fuse_len.(p.pc) in
      if glen >= 2 then begin
        count_instrs t p glen;
        for k = 0 to glen - 1 do
          count_op p (p.pc + k)
        done;
        exec_fused_group t p p.pc glen;
        p.pc <- p.pc + glen
      end
      else begin
        count_instrs t p 1;
        count_op p p.pc;
        exec_kernel t p p.pc a;
        p.pc <- p.pc + 1
      end;
      Continue
  | Ir.Flat.FScalar { lhs; rhs } ->
      count_instrs t p 1;
      count_op p p.pc;
      p.env.(lhs) <- Runtime.Values.eval_env p.env rhs;
      p.time.fv <- p.time.fv +. t.machine.Machine.Params.scalar_op_cost;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FJump target ->
      count_instrs t p 1;
      count_op p p.pc;
      p.pc <- target;
      Continue
  | Ir.Flat.FJumpIfNot (cond, target) ->
      count_instrs t p 1;
      count_op p p.pc;
      p.time.fv <- p.time.fv +. t.machine.Machine.Params.scalar_op_cost;
      if Runtime.Values.eval_bool p.env cond then p.pc <- p.pc + 1
      else p.pc <- target;
      Continue
  | Ir.Flat.FReduce r ->
      count_instrs t p 1;
      count_op p p.pc;
      exec_reduce t p p.pc r
  | Ir.Flat.FCollPart w ->
      count_instrs t p 1;
      count_op p p.pc;
      exec_coll_part t p p.pc w;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FCollFin w ->
      count_instrs t p 1;
      count_op p p.pc;
      exec_coll_fin t p w;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FComm (call, xfer) -> (
      match exec_comm t p call xfer with
      | Continue ->
          (* counted only on completion: a blocked call re-executes when
             woken, and the number of attempts depends on the wake order,
             not on the program *)
          count_instrs t p 1;
          count_op p p.pc;
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
      let missing ~kind_bit pick =
        let x = p.wait_arg in
        missing_partners t p ~xfer:x ~kind_bit (pick t.wplans.(x).(p.rank))
        |> List.map string_of_int |> String.concat ","
      in
      let coll_why kind =
        (* a stuck synthesized round names its algorithm, phase, round
           and the exact partner rank *)
        let s = t.csides.(p.wait_arg).(p.rank) in
        Printf.sprintf
          "proc %d waiting for %s of collective round %s from proc %d"
          p.rank kind
          (Ir.Transfer.describe t.flat.Ir.Flat.prog
             t.flat.Ir.Flat.transfers.(p.wait_arg))
          (if kind = "data" then s.c_from else s.c_to)
      in
      let why =
        if
          (p.wait_kind = wk_data || p.wait_kind = wk_tokens)
          && t.colls.(p.wait_arg) <> None
        then coll_why (if p.wait_kind = wk_data then "data" else "the token")
        else if p.wait_kind = wk_data then
          Printf.sprintf "proc %d waiting for data of transfer %d from %s"
            p.rank p.wait_arg
            (missing ~kind_bit:kb_data (fun wp -> wp.w_recv))
        else if p.wait_kind = wk_tokens then
          Printf.sprintf "proc %d waiting for tokens of transfer %d from %s"
            p.rank p.wait_arg
            (missing ~kind_bit:kb_token (fun wp -> wp.w_send))
        else if p.wait_kind = wk_reduce then
          Printf.sprintf "proc %d waiting in reduction %d" p.rank p.wait_arg
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
let final_env (t : t) : Runtime.Values.env = t.procs.(0).env

(* accessors for tests and tools that inspect a finished engine *)

let procs (t : t) = t.procs
let proc_env (p : proc) = p.env
let proc_stores (p : proc) = p.stores
let topology (t : t) = t.topology

(** Per-link busy-until times after a run — all zeros (empty) under
    [Ideal]. Exposed for tests that assert occupancy stays sane (no
    negative/NaN entries, phantom boundary links never claimed). *)
let link_occupancy (t : t) : float array = Array.copy t.link_free

(** Staging-pool accounting over all send sides (receive sides alias the
    sender's pool): (buffers freshly allocated, acquires served from the
    freelists). The split depends on drain interleaving — a sender
    running ahead deepens its pools — so it is a runtime diagnostic, not
    part of the deterministic {!Stats.t}. *)
let pool_counts (t : t) : int * int =
  let fresh = ref 0 and reused = ref 0 in
  Array.iter
    (Array.iter (fun (wp : wplan) ->
         Array.iter
           (fun (s : wside) ->
             let f, r = Runtime.Wireplan.pool_stats s.w_pool in
             fresh := !fresh + f;
             reused := !reused + r)
           wp.w_send))
    t.wplans;
  (!fresh, !reused)
let fused_group_count (t : t) =
  Array.fold_left (fun n l -> if l >= 2 then n + 1 else n) 0 t.fuse_len

(** Completed executions per flat op index after a run (processor 0's
    counters; control flow is replicated, so every processor's counts
    are identical). [Ir.Flat.src_of_op] joins them back to structured
    positions — the measured activation counts static communication
    predictions are validated against. *)
let op_counts (t : t) : int array = Array.copy t.procs.(0).ops_run
