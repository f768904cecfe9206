(** Static communication-volume analysis: per-processor {message count,
    byte, CPU-cost} bounds computed from the final IR without running
    the simulator — the compile-time cost model the paper's tables ask
    for.

    The analysis has two halves, mirroring {!Sim.Engine} exactly:

    - {b per-activation coefficients}: what one execution of a transfer
      site charges each processor. Fringe transfers get their per-partner
      send/receive sides from {!Runtime.Halo.partner_sides} — the same
      function the engine builds its plans from — and synthesized
      collective rounds get theirs from {!Ir.Coll.role}; one function
      turns either side lists into a coefficient, as one interpreter
      runs both in the engine. The CPU coefficient replays the engine's
      charge formulas: [dr_over] per expected message at DR (posted
      receives and readiness notifications), [sr_over + bytes *
      send_byte] per message at SR, [dn_over + bytes * unpack] per
      message at DN — where [unpack] is
      zero iff the library posts receives (DR = [Post_recv]; the four
      calls of a transfer always share one basic block, so the posted
      receive is always consumed by its own activation's DN) or deposits
      directly (SHMEM) — and [sv_over] per SV with outstanding sends.
      These coefficients are {e exact}: integer counters predicted from
      them match the engine's dynamic statistics to the message and the
      byte, and the CPU coefficient to float-summation order.

    - {b activation bounds}: how many times each site executes, as an
      {!Absint.ival} — the product of the enclosing loops' trip-count
      intervals and [\[0,1\]] factors for undecided conditionals, using
      the fixpoint interval analysis {!Absint.analyze} over the same IR.
      Sites inside branches the analysis proves dead get the exact bound
      [\[0,0\]]. Bounds are symbolic in whatever the interval analysis
      cannot pin: a do-until loop with a data-dependent exit contributes
      [\[1,inf)].

    Static bound = coefficient x activation interval. Engine-validated
    prediction = coefficient x {e measured} activation count (the
    engine's per-op execution counters), which must agree with the
    dynamic statistics exactly — see [Run.Predict]. Note the opaque
    vendor-reduction path ([ReduceK]) is modeled as computation by the
    engine (no per-message counters or comm CPU), so it correctly
    contributes nothing here; synthesized collectives
    ([--collective=...]) are fully counted. *)

type coeff = {
  c_msgs_sent : int;
  c_bytes_sent : int;
  c_msgs_recv : int;
  c_bytes_recv : int;
  c_xfer_sent : bool;  (** counts one [xfers_sent] per activation *)
  c_xfer_recv : bool;  (** counts one [xfers_recv] per activation *)
  c_cpu : float;  (** comm-CPU seconds per activation *)
}

(** One communication site: one transfer (one DR/SR/DN/SV quadruple —
    the unit the paper counts) at one program point. *)
type site = {
  st_xfer : int;  (** transfer id *)
  st_pos : int;  (** preorder position of the site's first call *)
  st_desc : string;  (** [Transfer.describe] *)
  st_loops : int list;  (** enclosing loop positions, innermost first *)
  st_acts : Absint.ival;  (** static activation-count bound *)
  st_coeffs : coeff array;  (** per processor *)
}

type t = {
  cv_nprocs : int;
  cv_sites : site list;  (** in preorder position order *)
}

(* ------------------------------------------------------------------ *)
(* Per-activation coefficients                                         *)
(* ------------------------------------------------------------------ *)

let lib_dr_cpu (lib : Machine.Library.t) ~nrecv =
  match Machine.Library.semantics lib.Machine.Library.kind Ir.Instr.DR with
  | Machine.Library.Post_recv | Machine.Library.Notify_ready ->
      float_of_int nrecv *. lib.Machine.Library.costs.Machine.Params.dr_over
  | _ -> 0.0

let lib_unpack (lib : Machine.Library.t) =
  match Machine.Library.semantics lib.Machine.Library.kind Ir.Instr.DR with
  | Machine.Library.Post_recv -> 0.0
  | _ ->
      if Machine.Library.deposits_directly lib.Machine.Library.kind then 0.0
      else lib.Machine.Library.costs.Machine.Params.recv_byte

let lib_sv_cpu (lib : Machine.Library.t) ~sends =
  match Machine.Library.semantics lib.Machine.Library.kind Ir.Instr.SV with
  | Machine.Library.Wait_send_done when sends ->
      lib.Machine.Library.costs.Machine.Params.sv_over
  | _ -> 0.0

(** Coefficients of one activation on one processor, from the byte
    sizes of its per-partner send and receive messages: charges per the
    engine's message protocol, which fringe transfers and collective
    rounds share. *)
let side_coeff (lib : Machine.Library.t) ~(sends : int list)
    ~(recvs : int list) : coeff =
  let c = lib.Machine.Library.costs in
  let nsend = List.length sends and nrecv = List.length recvs in
  let unpack = lib_unpack lib in
  let cpu =
    lib_dr_cpu lib ~nrecv
    +. List.fold_left
         (fun acc bytes ->
           acc +. c.Machine.Params.sr_over
           +. (float_of_int bytes *. c.Machine.Params.send_byte))
         0.0 sends
    +. List.fold_left
         (fun acc bytes ->
           acc +. c.Machine.Params.dn_over +. (float_of_int bytes *. unpack))
         0.0 recvs
    +. lib_sv_cpu lib ~sends:(nsend > 0)
  in
  { c_msgs_sent = nsend;
    c_bytes_sent = List.fold_left ( + ) 0 sends;
    c_msgs_recv = nrecv;
    c_bytes_recv = List.fold_left ( + ) 0 recvs;
    c_xfer_sent = nsend > 0;
    c_xfer_recv = nrecv > 0;
    c_cpu = cpu }

(* ------------------------------------------------------------------ *)
(* Activation bounds                                                   *)
(* ------------------------------------------------------------------ *)

let repeat_default = Absint.mk 1.0 infinity
let for_default = Absint.mk 0.0 infinity
let maybe = Absint.mk 0.0 1.0

let analyze ~(lib : Machine.Library.t) ~pr ~pc (p : Ir.Instr.program) : t =
  let prog = p.Ir.Instr.prog in
  let summary = Absint.analyze p in
  let layout = Runtime.Layout.for_program ~pr ~pc prog in
  let nprocs = Runtime.Layout.nprocs layout in
  let coeffs_of (x : Ir.Transfer.t) : coeff array =
    match x.Ir.Transfer.coll with
    | Some d ->
        if d.Ir.Coll.cl_nprocs <> nprocs then
          Fmt.invalid_arg
            "Commvol.analyze: collective round %s was synthesized for %d \
             processors, but the mesh is %dx%d"
            (Ir.Coll.describe d) d.Ir.Coll.cl_nprocs pr pc;
        Array.init nprocs (fun rank ->
            (* at most one partner each way, [count] values per message *)
            let r = Ir.Coll.role d ~rank in
            let side partner =
              if partner < 0 then [] else [ 8 * r.Ir.Coll.r_count ]
            in
            side_coeff lib ~sends:(side r.Ir.Coll.r_to)
              ~recvs:(side r.Ir.Coll.r_from))
    | None ->
        Array.init nprocs (fun p ->
            let sides dir =
              List.map
                (fun (pp : Runtime.Halo.partner_pieces) ->
                  8 * pp.Runtime.Halo.pp_cells)
                (Runtime.Halo.partner_sides layout prog
                   ~arrays:x.Ir.Transfer.arrays ~off:x.Ir.Transfer.off ~p ~dir)
            in
            side_coeff lib ~sends:(sides `Send) ~recvs:(sides `Recv))
  in
  (* one entry per transfer, recorded at its first call's position; the
     emitter keeps all four calls of a transfer in one basic block, so
     every call shares the first one's activation count *)
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let sites = ref [] in
  let rec go pos acts loops code =
    match code with
    | [] -> ()
    | i :: rest ->
        (match i with
        | Ir.Instr.Comm (_, x) ->
            if not (Hashtbl.mem seen x) then begin
              Hashtbl.replace seen x ();
              sites :=
                { st_xfer = x;
                  st_pos = pos;
                  st_desc =
                    Ir.Transfer.describe prog p.Ir.Instr.transfers.(x);
                  st_loops = loops;
                  st_acts = acts;
                  st_coeffs = coeffs_of p.Ir.Instr.transfers.(x) }
                :: !sites
            end
        | Ir.Instr.Kernel _ | Ir.Instr.ScalarK _ | Ir.Instr.ReduceK _
        | Ir.Instr.CollPart _ | Ir.Instr.CollFin _ ->
            ()
        | Ir.Instr.Repeat (body, _) ->
            let trips =
              match Absint.trips summary pos with
              | Some t -> t
              | None -> repeat_default
            in
            go (pos + 1) (Absint.mul acts trips) (pos :: loops) body
        | Ir.Instr.For { body; _ } ->
            let trips =
              match Absint.trips summary pos with
              | Some t -> t
              | None -> for_default
            in
            go (pos + 1) (Absint.mul acts trips) (pos :: loops) body
        | Ir.Instr.If (_, a, b) ->
            let apos = pos + 1 in
            let bpos = pos + 1 + Ir.Instr.size_list a in
            (match Absint.decision summary pos with
            | Some true ->
                go apos acts loops a;
                (* dead arm: its sites exist in the transfer table and
                   must predict zero activations *)
                go bpos (Absint.point 0.0) loops b
            | Some false ->
                go apos (Absint.point 0.0) loops a;
                go bpos acts loops b
            | None ->
                let half = Absint.mul acts maybe in
                go apos half loops a;
                go bpos half loops b));
        go (pos + Ir.Instr.size i) acts loops rest
  in
  go 0 (Absint.point 1.0) [] p.Ir.Instr.code;
  let sites =
    List.sort (fun a b -> compare a.st_pos b.st_pos) !sites
  in
  { cv_nprocs = nprocs; cv_sites = sites }

(* ------------------------------------------------------------------ *)
(* Bounds and predictions                                              *)
(* ------------------------------------------------------------------ *)

(** Static per-processor totals, as intervals (coefficient x activation
    bound, summed over sites). *)
type totals = {
  t_msgs_sent : Absint.ival;
  t_bytes_sent : Absint.ival;
  t_msgs_recv : Absint.ival;
  t_bytes_recv : Absint.ival;
  t_xfers_sent : Absint.ival;
  t_xfers_recv : Absint.ival;
  t_cpu : Absint.ival;
}

let scale (acts : Absint.ival) k = Absint.mul acts (Absint.point k)

let proc_totals (t : t) (p : int) : totals =
  List.fold_left
    (fun acc s ->
      let c = s.st_coeffs.(p) in
      let b01 b = if b then 1.0 else 0.0 in
      { t_msgs_sent =
          Absint.add acc.t_msgs_sent
            (scale s.st_acts (float_of_int c.c_msgs_sent));
        t_bytes_sent =
          Absint.add acc.t_bytes_sent
            (scale s.st_acts (float_of_int c.c_bytes_sent));
        t_msgs_recv =
          Absint.add acc.t_msgs_recv
            (scale s.st_acts (float_of_int c.c_msgs_recv));
        t_bytes_recv =
          Absint.add acc.t_bytes_recv
            (scale s.st_acts (float_of_int c.c_bytes_recv));
        t_xfers_sent =
          Absint.add acc.t_xfers_sent (scale s.st_acts (b01 c.c_xfer_sent));
        t_xfers_recv =
          Absint.add acc.t_xfers_recv (scale s.st_acts (b01 c.c_xfer_recv));
        t_cpu = Absint.add acc.t_cpu (scale s.st_acts c.c_cpu) })
    { t_msgs_sent = Absint.point 0.0;
      t_bytes_sent = Absint.point 0.0;
      t_msgs_recv = Absint.point 0.0;
      t_bytes_recv = Absint.point 0.0;
      t_xfers_sent = Absint.point 0.0;
      t_xfers_recv = Absint.point 0.0;
      t_cpu = Absint.point 0.0 }
    t.cv_sites

(** Bound on the paper's dynamic count (max over processors of
    [xfers_recv]): the interval [\[max lo, max hi\]] over processors. *)
let dynamic_count_bound (t : t) : Absint.ival =
  let rec go p acc =
    if p >= t.cv_nprocs then acc
    else
      let b = (proc_totals t p).t_xfers_recv in
      go (p + 1)
        { Absint.lo = Float.max acc.Absint.lo b.Absint.lo;
          hi = Float.max acc.Absint.hi b.Absint.hi }
  in
  if t.cv_nprocs = 0 then Absint.point 0.0
  else go 1 (proc_totals t 0).t_xfers_recv

(** Exact per-processor prediction given {e measured} activation counts
    per site (the engine's per-op counters): the integer statistics the
    run must have produced, and the comm-CPU seconds it charged. *)
type exact = {
  e_msgs_sent : int;
  e_bytes_sent : int;
  e_msgs_recv : int;
  e_bytes_recv : int;
  e_xfers_sent : int;
  e_xfers_recv : int;
  e_cpu : float;
}

let exact_totals (t : t) ~(acts : site -> int) (p : int) : exact =
  List.fold_left
    (fun acc s ->
      let c = s.st_coeffs.(p) in
      let n = acts s in
      { e_msgs_sent = acc.e_msgs_sent + (n * c.c_msgs_sent);
        e_bytes_sent = acc.e_bytes_sent + (n * c.c_bytes_sent);
        e_msgs_recv = acc.e_msgs_recv + (n * c.c_msgs_recv);
        e_bytes_recv = acc.e_bytes_recv + (n * c.c_bytes_recv);
        e_xfers_sent =
          acc.e_xfers_sent + (if c.c_xfer_sent then n else 0);
        e_xfers_recv =
          acc.e_xfers_recv + (if c.c_xfer_recv then n else 0);
        e_cpu = acc.e_cpu +. (float_of_int n *. c.c_cpu) })
    { e_msgs_sent = 0; e_bytes_sent = 0; e_msgs_recv = 0; e_bytes_recv = 0;
      e_xfers_sent = 0; e_xfers_recv = 0; e_cpu = 0.0 }
    t.cv_sites

(** Exact dynamic count under measured activations. *)
let exact_dynamic_count (t : t) ~(acts : site -> int) : int =
  let rec go p m =
    if p >= t.cv_nprocs then m
    else go (p + 1) (max m (exact_totals t ~acts p).e_xfers_recv)
  in
  go 0 0
