(** Collective synthesis: compile each full reduction ([ReduceK]) into
    the explicit DR/SR/DN/SV round schedule of one of the four
    {!Ir.Coll} algorithms, selected by an alpha/beta cost model over the
    target machine's library parameters.

    The expansion runs on the final {!Ir.Instr.program}, after the
    block-level passes (rr/cc/pl): reductions are not fringe transfers,
    so none of those passes move them, and expanding last keeps the
    synthesized rounds out of the combining/pipelining search space —
    a round's payload is one live scalar, there is nothing to combine
    or hoist. Each reduction site gets its own collective {e slot};
    a site inside a loop reuses its slot every iteration (the
    [CollPart]/[CollFin] bookends delimit activations, which is what
    {!Analysis.Schedcheck}'s collective checker verifies).

    {b Cost model.} One message of [b] bytes under library [L] on
    machine [M] costs

    {v
    alpha(L) + b * beta(L)
    alpha = dr + sr + dn + sv + wire_latency + msg_latency
          + (wire_latency + token_latency  if L rendezvous at SR)
    beta  = send_byte + recv_byte + 1/bandwidth
    v}

    — the per-call software overheads the paper measures (Figure 3)
    plus the wire. An algorithm's cost is the sum over its canonical
    rounds of [count_k] messages' bytes through that formula, i.e. the
    {e serialized} per-rank round path: every rank participates in every
    round of the tree algorithms at most once, so the critical path is
    the round count, and dissemination pays wider messages instead of
    more rounds. With 8-byte scalar payloads alpha dominates beta by two
    to three orders of magnitude on both machines, so the search is
    effectively over round counts: recursive doubling (log2 P rounds,
    no broadcast) wins at power-of-two meshes, dissemination
    (ceil log2 P rounds) wins elsewhere, and ring (2(P-1) rounds) wins
    nothing until P <= 2 ties — exactly the landscape EXPERIMENTS.md
    tabulates against measured times. *)

let alpha ~(machine : Machine.Params.t) ~(lib : Machine.Library.t) =
  let c = lib.Machine.Library.costs in
  let rendezvous =
    Machine.Library.semantics lib.Machine.Library.kind Ir.Instr.SR
    = Machine.Library.Send_rendezvous
  in
  c.Machine.Params.dr_over +. c.Machine.Params.sr_over
  +. c.Machine.Params.dn_over +. c.Machine.Params.sv_over
  +. machine.Machine.Params.wire_latency
  +. c.Machine.Params.msg_latency
  +.
  if rendezvous then
    machine.Machine.Params.wire_latency +. c.Machine.Params.token_latency
  else 0.0

(** Per-byte cost (seconds): sender pack + receiver unpack + wire
    occupancy. *)
let beta ~(machine : Machine.Params.t) ~(lib : Machine.Library.t) =
  let c = lib.Machine.Library.costs in
  c.Machine.Params.send_byte +. c.Machine.Params.recv_byte
  +. (1.0 /. machine.Machine.Params.bandwidth)

(** Messages per round: dissemination's gather rounds carry a window of
    partials, every other (alg, phase, round) moves one scalar. *)
let round_count (alg : Ir.Coll.alg) phase ~nprocs k =
  match (alg, phase) with
  | Ir.Coll.Dissem, Ir.Coll.Gather -> Ir.Coll.dissem_count ~nprocs k
  | _ -> 1

(** Modeled cost of one whole collective of algorithm [alg] on [nprocs]
    ranks (8-byte scalar elements).

    Under the default [Ideal] topology this is exactly the flat
    per-round [alpha + bytes * beta] sum the model has always used —
    same fold, same float-accumulation order, so every pick pinned
    before topologies existed is preserved bit for bit.

    Under [Mesh]/[Torus] ([mesh] gives the rank grid, default
    [1 x nprocs]) each round additionally pays for its geometry, mirroring
    the engine's store-and-forward occupancy model: the longest active
    route adds [(h_max - 1)] extra hops of wire latency + transfer time
    (the first hop is already in alpha/beta), and the most-loaded
    directed link under dimension-order routing serializes its
    [l_max] concurrent messages, adding [(l_max - 1)] transfer times.
    Round structure differs per algorithm — dissemination's circulant
    strides wrap (cheap on a torus, diameter-long on a mesh), recursive
    doubling's butterflies stay local — so the argmin genuinely shifts
    with the topology. *)
let cost ?(topology = Machine.Topology.Ideal) ?mesh ~machine ~lib ~nprocs
    (alg : Ir.Coll.alg) : float =
  let a = alpha ~machine ~lib and b = beta ~machine ~lib in
  match topology with
  | Machine.Topology.Ideal ->
      List.fold_left
        (fun acc (phase, k) ->
          let count = round_count alg phase ~nprocs k in
          acc +. a +. (float_of_int (8 * count) *. b))
        0.0
        (Ir.Coll.rounds alg ~nprocs)
  | Machine.Topology.Mesh | Machine.Topology.Torus ->
      let pr, pc =
        match mesh with Some m -> m | None -> (1, nprocs)
      in
      let bw = machine.Machine.Params.bandwidth in
      let wl = machine.Machine.Params.wire_latency in
      let load = Array.make (Machine.Topology.nlinks ~pr ~pc) 0 in
      List.fold_left
        (fun acc (phase, k) ->
          let count = round_count alg phase ~nprocs k in
          let bytes = float_of_int (8 * count) in
          Array.fill load 0 (Array.length load) 0;
          let h_max = ref 0 and l_max = ref 0 in
          let d =
            { Ir.Coll.cl_alg = alg; cl_phase = phase; cl_round = k;
              cl_slot = 0; cl_op = Zpl.Ast.RMax; cl_nprocs = nprocs }
          in
          for rank = 0 to nprocs - 1 do
            let r = Ir.Coll.role d ~rank in
            if r.Ir.Coll.r_to >= 0 then begin
              let route =
                Machine.Topology.route topology ~pr ~pc ~src:rank
                  ~dst:r.Ir.Coll.r_to
              in
              if Array.length route > !h_max then
                h_max := Array.length route;
              Array.iter
                (fun l ->
                  load.(l) <- load.(l) + 1;
                  if load.(l) > !l_max then l_max := load.(l))
                route
            end
          done;
          acc +. a
          +. (bytes *. b)
          +. (float_of_int (max 0 (!h_max - 1)) *. (wl +. (bytes /. bw)))
          +. (float_of_int (max 0 (!l_max - 1)) *. (bytes /. bw)))
        0.0
        (Ir.Coll.rounds alg ~nprocs)

(** Cheapest algorithm under the cost model; strictly-less search over
    {!Ir.Coll.all_algs} in order, so ties keep the earlier algorithm —
    deterministic for any parameter set. *)
let choose ?topology ?mesh ~machine ~lib nprocs : Ir.Coll.alg =
  match Ir.Coll.all_algs with
  | [] -> assert false
  | first :: rest ->
      let best = ref first in
      let best_cost =
        ref (cost ?topology ?mesh ~machine ~lib ~nprocs first)
      in
      List.iter
        (fun alg ->
          let c = cost ?topology ?mesh ~machine ~lib ~nprocs alg in
          if c < !best_cost then begin
            best := alg;
            best_cost := c
          end)
        rest;
      !best

(* ------------------------------------------------------------------ *)
(* Expansion                                                           *)
(* ------------------------------------------------------------------ *)

(** Expand every [ReduceK] of [p] into [CollPart]; rounds; [CollFin]
    under [collective] ([Opaque] returns [p] unchanged). Round transfers
    are appended to the transfer table with fresh ids, carry no member
    arrays and a zero offset, and are tagged with their {!Ir.Coll.desc} —
    so {!Ir.Transfer.describe}, the printer, Schedcheck and the engine
    all name the algorithm, phase and round of any diagnostic. *)
let expand ?topology ?mesh ~(collective : Config.collective)
    ~(machine : Machine.Params.t) ~(lib : Machine.Library.t) ~(nprocs : int)
    (p : Ir.Instr.program) : Ir.Instr.program =
  match collective with
  | Config.Opaque -> p
  | Config.Auto | Config.Forced _ ->
      let alg =
        match collective with
        | Config.Forced a -> a
        | _ -> choose ?topology ?mesh ~machine ~lib nprocs
      in
      let table = ref (Array.to_list p.Ir.Instr.transfers |> List.rev) in
      let next = ref (Array.length p.Ir.Instr.transfers) in
      let slots = ref 0 in
      let expand_reduce (r : Zpl.Prog.reduce_s) : Ir.Instr.instr list =
        let slot = !slots in
        incr slots;
        let w =
          { Ir.Instr.cw_red = r; Ir.Instr.cw_slot = slot;
            Ir.Instr.cw_alg = alg }
        in
        let rounds =
          List.concat_map
            (fun (phase, k) ->
              let d =
                { Ir.Coll.cl_alg = alg;
                  Ir.Coll.cl_phase = phase;
                  Ir.Coll.cl_round = k;
                  Ir.Coll.cl_slot = slot;
                  Ir.Coll.cl_op = r.Zpl.Prog.r_op;
                  Ir.Coll.cl_nprocs = nprocs }
              in
              let id = !next in
              incr next;
              table :=
                { Ir.Transfer.id; arrays = []; off = (0, 0); coll = Some d }
                :: !table;
              [ Ir.Instr.Comm (Ir.Instr.DR, id);
                Ir.Instr.Comm (Ir.Instr.SR, id);
                Ir.Instr.Comm (Ir.Instr.DN, id);
                Ir.Instr.Comm (Ir.Instr.SV, id) ])
            (Ir.Coll.rounds alg ~nprocs)
        in
        (Ir.Instr.CollPart w :: rounds) @ [ Ir.Instr.CollFin w ]
      in
      let rec go (code : Ir.Instr.instr list) : Ir.Instr.instr list =
        List.concat_map
          (function
            | Ir.Instr.ReduceK r -> expand_reduce r
            | Ir.Instr.Repeat (body, cond) ->
                [ Ir.Instr.Repeat (go body, cond) ]
            | Ir.Instr.For { var; lo; hi; step; body } ->
                [ Ir.Instr.For { var; lo; hi; step; body = go body } ]
            | Ir.Instr.If (cond, a, b) -> [ Ir.Instr.If (cond, go a, go b) ]
            | (Ir.Instr.Comm _ | Ir.Instr.Kernel _ | Ir.Instr.ScalarK _
              | Ir.Instr.CollPart _ | Ir.Instr.CollFin _) as i ->
                [ i ])
          code
      in
      let code = go p.Ir.Instr.code in
      { p with
        Ir.Instr.code;
        Ir.Instr.transfers = Array.of_list (List.rev !table) }
