(** Schedcheck implementation. See the interface for the contract.

    The protocol, race, availability and collective checkers share one
    abstract state flowing through a worklist fixpoint over the op CFG
    of {!Ir.Flat.t}, the form the engine executes:

    - [phases] — per transfer id, where in the DR/SR/DN/SV cycle the
      current activation stands. The lattice is the five-point flat
      lattice {Idle, Ready, Sent, Delivered} + [Conflict]: two paths
      that disagree meet to [Conflict], and any further call on a
      [Conflict] transfer is a path-dependence diagnostic.
    - [avail] — the set of (array, mesh-offset) pairs whose fringe data
      is valid: added when a transfer carrying the pair issues DN,
      killed when any kernel writes the array. Meet is intersection, so
      availability holds only if it holds on every path — exactly the
      obligation redundant-communication removal discharges informally.
    - [coll] — per collective slot, how many synthesized rounds have
      completed since the slot's [CollPart] (-1: no collective active;
      -2: paths disagree). The canonical round sequence is re-derived
      from {!Ir.Coll.rounds}, independently of the synthesizer, so a
      dropped, duplicated or reordered round cannot agree with it.

    The order checker is a separate scan: rendezvous order is a
    property of maximal runs of adjacent communication calls, not of
    the dataflow state. *)

type checker = Protocol | Race | Availability | Order | Collective

let checker_name = function
  | Protocol -> "protocol"
  | Race -> "race"
  | Availability -> "availability"
  | Order -> "order"
  | Collective -> "collective"

type diag = {
  d_checker : checker;
  d_pos : int;
  d_xfer : int option;
  d_msg : string;
}

let pp_diag ppf d =
  Fmt.string ppf
    (Zpl.Loc.format_error (Zpl.Loc.Instr d.d_pos)
       (checker_name d.d_checker ^ ": " ^ d.d_msg))

let diag_to_string d = Fmt.str "%a" pp_diag d

(* ------------------------------------------------------------------ *)
(* Shared abstract state                                               *)
(* ------------------------------------------------------------------ *)

type phase = Idle | Ready | Sent | Delivered | Conflict

let phase_name = function
  | Idle -> "idle"
  | Ready -> "after DR"
  | Sent -> "after SR"
  | Delivered -> "after DN"
  | Conflict -> "path-dependent"

module Pair = struct
  type t = int * (int * int)  (* array id, mesh offset *)

  let compare = Stdlib.compare
end

module Avail = Set.Make (Pair)

type state = { phases : phase array; avail : Avail.t; coll : int array }

let state_equal a b =
  a.phases = b.phases && Avail.equal a.avail b.avail && a.coll = b.coll

let state_meet a b =
  { phases =
      Array.init (Array.length a.phases) (fun i ->
          if a.phases.(i) = b.phases.(i) then a.phases.(i) else Conflict);
    avail = Avail.inter a.avail b.avail;
    coll =
      Array.init (Array.length a.coll) (fun s ->
          if a.coll.(s) = b.coll.(s) then a.coll.(s) else -2) }

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

(** Canonical shape of one collective slot, re-derived from the transfer
    table and {!Ir.Coll.rounds} — not from the synthesizer's output
    order. *)
type slot_info = {
  si_alg : Ir.Coll.alg;
  si_nprocs : int;
  si_rounds : (Ir.Coll.phase * int) array;  (** canonical round order *)
}

type ctx = {
  prog : Zpl.Prog.t;
  transfers : Ir.Transfer.t array;
  slots : slot_info option array;  (** per collective slot *)
}

let make_ctx (f : Ir.Flat.t) : ctx =
  let slots = Array.make (Ir.Flat.coll_slots f) None in
  Array.iter
    (fun (x : Ir.Transfer.t) ->
      match x.Ir.Transfer.coll with
      | Some d when slots.(d.Ir.Coll.cl_slot) = None ->
          slots.(d.Ir.Coll.cl_slot) <-
            Some
              { si_alg = d.Ir.Coll.cl_alg;
                si_nprocs = d.Ir.Coll.cl_nprocs;
                si_rounds =
                  Array.of_list
                    (Ir.Coll.rounds d.Ir.Coll.cl_alg
                       ~nprocs:d.Ir.Coll.cl_nprocs) }
      | _ -> ())
    f.Ir.Flat.transfers;
  { prog = f.Ir.Flat.prog; transfers = f.Ir.Flat.transfers; slots }

(** Static consistency of the transfer table's collective tags: every
    round of a slot must agree on algorithm, operator and processor
    count, and carry a (phase, round) the algorithm actually has. These
    are table properties, not path properties, so they are checked once
    here rather than in the dataflow. *)
let table_diags (cx : ctx) ~end_pos : diag list =
  let diags = ref [] in
  let emit xfer fmt =
    Printf.ksprintf
      (fun msg ->
        diags :=
          { d_checker = Collective;
            d_pos = end_pos;
            d_xfer = Some xfer;
            d_msg = msg }
          :: !diags)
      fmt
  in
  Array.iter
    (fun (x : Ir.Transfer.t) ->
      match x.Ir.Transfer.coll with
      | None -> ()
      | Some d -> (
          match cx.slots.(d.Ir.Coll.cl_slot) with
          | None -> assert false (* make_ctx saw this transfer *)
          | Some si ->
              if
                si.si_alg <> d.Ir.Coll.cl_alg
                || si.si_nprocs <> d.Ir.Coll.cl_nprocs
              then
                emit x.Ir.Transfer.id
                  "transfer %s disagrees with slot %d's algorithm (%s on %d \
                   procs)"
                  (Ir.Transfer.describe cx.prog x)
                  d.Ir.Coll.cl_slot
                  (Ir.Coll.alg_name si.si_alg)
                  si.si_nprocs
              else if
                not
                  (Array.exists
                     (fun r -> r = (d.Ir.Coll.cl_phase, d.Ir.Coll.cl_round))
                     si.si_rounds)
              then
                emit x.Ir.Transfer.id
                  "transfer %s names a round %s does not have on %d procs"
                  (Ir.Transfer.describe cx.prog x)
                  (Ir.Coll.alg_name si.si_alg)
                  si.si_nprocs))
    cx.transfers;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Protocol, race, availability, collective: one transfer function     *)
(* ------------------------------------------------------------------ *)

(** The transfer function over flat ops. [emit] is called for every
    diagnostic (a pre-rendered message); the caller decides whether
    [final] suppresses it (the fixpoint discipline). Jumps pass the state
    through: control flow is the CFG worklist's business. *)
let make_transfer (cx : ctx)
    ~(emit : final:bool -> pos:int -> checker -> int option -> string -> unit)
    =
  let transfers = cx.transfers in
  let n = Array.length transfers in
  let xdesc t = Ir.Transfer.describe cx.prog transfers.(t) in
  let aname aid = (Zpl.Prog.array_info cx.prog aid).Zpl.Prog.a_name in
  let pair_str (aid, off) =
    Printf.sprintf "%s@%s" (aname aid) (Ir.Transfer.direction_name off)
  in
  (* transfers currently carrying (aid, off), in a given set of phases *)
  let in_flight st ~phases (aid, off) =
    let found = ref None in
    for t = n - 1 downto 0 do
      if
        List.mem st.phases.(t) phases
        && transfers.(t).Ir.Transfer.off = off
        && List.mem aid transfers.(t).Ir.Transfer.arrays
      then found := Some t
    done;
    !found
  in
  (* effect of a compute work item: fringe reads then array writes *)
  let work ~final ~pos ~(writes : int list) ~(rhs : Zpl.Prog.aexpr) st =
    List.iter
      (fun (aid, off) ->
        (match in_flight st ~phases:[ Ready; Sent ] (aid, off) with
        | Some t ->
            emit ~final ~pos Race (Some t)
              (Printf.sprintf
                 "kernel reads fringe %s before the DN of in-flight transfer \
                  %s — the incoming message may already overwrite those cells"
                 (pair_str (aid, off)) (xdesc t))
        | None -> ());
        if not (Avail.mem (aid, off) st.avail) then begin
          let candidate =
            let found = ref None in
            Array.iter
              (fun (x : Ir.Transfer.t) ->
                if
                  !found = None && x.Ir.Transfer.off = off
                  && List.mem aid x.Ir.Transfer.arrays
                then found := Some x.Ir.Transfer.id)
              transfers;
            !found
          in
          emit ~final ~pos Availability candidate
            (Printf.sprintf
               "kernel reads fringe %s, but no transfer delivering it is \
                available on every path since the last write of %s%s"
               (pair_str (aid, off)) (aname aid)
               (match candidate with
               | Some t ->
                   Printf.sprintf " (nearest in the table: %s)" (xdesc t)
               | None -> ""))
        end)
      (Zpl.Prog.comm_needs rhs);
    List.iter
      (fun w ->
        for t = 0 to n - 1 do
          if
            (st.phases.(t) = Sent || st.phases.(t) = Delivered)
            && List.mem w transfers.(t).Ir.Transfer.arrays
          then
            emit ~final ~pos Race (Some t)
              (Printf.sprintf
                 "kernel writes %s, a member array of in-flight transfer %s, \
                  between its SR and SV"
                 (aname w) (xdesc t))
        done)
      writes;
    if writes = [] then st
    else
      { st with
        avail = Avail.filter (fun (a, _) -> not (List.mem a writes)) st.avail
      }
  in
  (* advance slot [s] by the completed round of transfer [t] *)
  let coll_round ~final ~pos st t (d : Ir.Coll.desc) =
    let s = d.Ir.Coll.cl_slot in
    let si =
      match cx.slots.(s) with Some si -> si | None -> assert false
    in
    let k = st.coll.(s) in
    let coll = Array.copy st.coll in
    (if k = -1 then
       emit ~final ~pos Collective (Some t)
         (Printf.sprintf
            "round %s completes outside an active collective of slot %d — no \
             partial has been computed on this path"
            (xdesc t) s)
     else if k = -2 then
       emit ~final ~pos Collective (Some t)
         (Printf.sprintf
            "round %s completes after paths disagreed on slot %d's progress"
            (xdesc t) s)
     else if k >= Array.length si.si_rounds then
       emit ~final ~pos Collective (Some t)
         (Printf.sprintf
            "round %s is one round too many — %s on %d procs has only %d \
             rounds"
            (xdesc t)
            (Ir.Coll.alg_name si.si_alg)
            si.si_nprocs (Array.length si.si_rounds))
     else begin
       let ph, r = si.si_rounds.(k) in
       if (d.Ir.Coll.cl_phase, d.Ir.Coll.cl_round) <> (ph, r) then
         emit ~final ~pos Collective (Some t)
           (Printf.sprintf
              "round %s out of order — the canonical %s schedule expects \
               %s[%d] as round %d"
              (xdesc t)
              (Ir.Coll.alg_name si.si_alg)
              (Ir.Coll.phase_name ph) r k)
     end);
    (if k >= 0 then coll.(s) <- min (k + 1) (Array.length si.si_rounds));
    { st with coll }
  in
  fun ~final ~pos (op : Ir.Flat.finstr) st ->
    match op with
    | Ir.Flat.FComm (c, t) ->
        let expected, next =
          match c with
          | Ir.Instr.DR -> (Idle, Ready)
          | Ir.Instr.SR -> (Ready, Sent)
          | Ir.Instr.DN -> (Sent, Delivered)
          | Ir.Instr.SV -> (Delivered, Idle)
        in
        let ph = st.phases.(t) in
        if ph <> expected then
          emit ~final ~pos Protocol (Some t)
            (Printf.sprintf
               "%s(%s) while %s (expected %s) — each activation must run DR, \
                SR, DN, SV exactly once, on every path"
               (Ir.Instr.call_name c) (xdesc t) (phase_name ph)
               (phase_name expected));
        let phases = Array.copy st.phases in
        phases.(t) <- next;
        let avail =
          match c with
          | Ir.Instr.DN ->
              List.fold_left
                (fun s a -> Avail.add (a, transfers.(t).Ir.Transfer.off) s)
                st.avail transfers.(t).Ir.Transfer.arrays
          | _ -> st.avail
        in
        let st = { st with phases; avail } in
        (* a collective round advances its slot when it completes (SV) *)
        if c = Ir.Instr.SV then
          match transfers.(t).Ir.Transfer.coll with
          | Some d -> coll_round ~final ~pos st t d
          | None -> st
        else st
    | Ir.Flat.FKernel a ->
        work ~final ~pos ~writes:[ a.Zpl.Prog.lhs ] ~rhs:a.Zpl.Prog.rhs st
    | Ir.Flat.FReduce r -> work ~final ~pos ~writes:[] ~rhs:r.Zpl.Prog.r_rhs st
    | Ir.Flat.FCollPart w ->
        let st =
          work ~final ~pos ~writes:[] ~rhs:w.Ir.Instr.cw_red.Zpl.Prog.r_rhs st
        in
        let s = w.Ir.Instr.cw_slot in
        if s >= Array.length st.coll then st
        else begin
          if st.coll.(s) >= 0 then
            emit ~final ~pos Collective None
              (Printf.sprintf
                 "collective slot %d restarts before its previous activation \
                  finished"
                 s);
          let coll = Array.copy st.coll in
          coll.(s) <- 0;
          { st with coll }
        end
    | Ir.Flat.FCollFin w ->
        let s = w.Ir.Instr.cw_slot in
        if s >= Array.length st.coll then st
        else begin
          let total =
            match cx.slots.(s) with
            | Some si -> Array.length si.si_rounds
            | None -> 0
          in
          (if st.coll.(s) = -1 then
             emit ~final ~pos Collective None
               (Printf.sprintf
                  "collective slot %d finishes without a partial on this path"
                  s)
           else if st.coll.(s) = -2 then
             emit ~final ~pos Collective None
               (Printf.sprintf
                  "collective slot %d finishes after paths disagreed on its \
                   progress"
                  s)
           else if st.coll.(s) <> total then
             emit ~final ~pos Collective None
               (Printf.sprintf
                  "collective slot %d finishes after %d of its %d rounds — \
                   the schedule drops a rendezvous"
                  s st.coll.(s) total));
          let coll = Array.copy st.coll in
          coll.(s) <- -1;
          { st with coll }
        end
    | Ir.Flat.FScalar _ | Ir.Flat.FJump _ | Ir.Flat.FJumpIfNot _
    | Ir.Flat.FHalt ->
        st

let end_state_diags (cx : ctx) ~end_pos (exit : state) : diag list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  Array.iteri
    (fun t ph ->
      if ph <> Idle then
        add
          { d_checker = Protocol;
            d_pos = end_pos;
            d_xfer = Some t;
            d_msg =
              Printf.sprintf
                (if ph = Conflict then
                   "transfer %s completes on some paths only (%s at end of \
                    program)"
                 else
                   "activation of transfer %s never completes (%s at end of \
                    program)")
                (Ir.Transfer.describe cx.prog cx.transfers.(t))
                (phase_name ph) })
    exit.phases;
  Array.iteri
    (fun s k ->
      if k <> -1 then
        add
          { d_checker = Collective;
            d_pos = end_pos;
            d_xfer = None;
            d_msg =
              Printf.sprintf
                "collective slot %d never finishes (still open at end of \
                 program)"
                s })
    exit.coll;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* SPMD rendezvous order: a scan over call runs                       *)
(* ------------------------------------------------------------------ *)

(** Every maximal run of consecutive communication calls is one
    rendezvous group: the emitter puts all calls scheduled at one block
    position adjacent to each other, and every processor executes the
    identical sequence (control conditions are replicated scalars). The
    canonical deadlock-free order within a fringe group is all DRs, then
    all SRs, then adjacent DN/SV pairs, each class sorted by transfer
    id — ids are assigned in uid order within a block, so id order here
    is the uid order of the optimizer.

    Synthesized collective rounds follow a different canonical order:
    each round is one adjacent DR;SR;DN;SV quadruple of one transfer
    (round k+1's values depend on round k's, so the classes cannot be
    batched), quadruples in ascending transfer id. The expansion brackets
    rounds between [CollPart]/[CollFin] — non-communication
    instructions — so a collective run never legally mixes with fringe
    calls; a mixed run is itself a diagnostic. *)
let order_check (prog : Zpl.Prog.t) (transfers : Ir.Transfer.t array)
    ~(emit_diag : diag -> unit) =
  let xdesc t = Ir.Transfer.describe prog transfers.(t) in
  let emit pos xfer fmt =
    Printf.ksprintf
      (fun msg ->
        emit_diag
          { d_checker = Order;
            d_pos = pos;
            d_xfer = Some xfer;
            d_msg = msg })
      fmt
  in
  let is_coll t = Ir.Transfer.is_coll transfers.(t) in
  let class_rank = function
    | Ir.Instr.DR -> 0
    | Ir.Instr.SR -> 1
    | Ir.Instr.DN | Ir.Instr.SV -> 2
  in
  let class_name = function 0 -> "DR" | 1 -> "SR" | _ -> "DN/SV" in
  let check_fringe_run (run : (int * Ir.Instr.call * int) list) =
    let cur = ref 0 in
    let last_tid = [| -1; -1; -1 |] in
    let pending = ref None in
    (* DN awaiting its adjacent SV *)
    List.iter
      (fun (pos, c, t) ->
        (match !pending with
        | Some (dpos, td) when c <> Ir.Instr.SV ->
            emit dpos td "DN(%s) is not immediately followed by its SV"
              (xdesc td);
            pending := None
        | _ -> ());
        match c with
        | Ir.Instr.SV -> (
            match !pending with
            | Some (_, td) when td = t -> pending := None
            | Some (_, td) ->
                emit pos t "SV(%s) follows DN(%s) — DN/SV must be adjacent \
                            pairs of the same transfer"
                  (xdesc t) (xdesc td);
                pending := None
            | None ->
                emit pos t "SV(%s) is not immediately preceded by its DN"
                  (xdesc t))
        | Ir.Instr.DR | Ir.Instr.SR | Ir.Instr.DN ->
            let r = class_rank c in
            if r < !cur then
              emit pos t
                "%s(%s) after %s calls in the same rendezvous group — the \
                 canonical SPMD order is all DRs, then SRs, then DN/SV pairs"
                (Ir.Instr.call_name c) (xdesc t) (class_name !cur)
            else cur := r;
            if last_tid.(r) >= t then
              emit pos t
                "%s(%s) breaks the ascending transfer-id (uid) order of its \
                 class — processors would block on rendezvous partners in \
                 different orders"
                (Ir.Instr.call_name c) (xdesc t);
            last_tid.(r) <- t;
            if c = Ir.Instr.DN then pending := Some (pos, t))
      run;
    match !pending with
    | Some (dpos, td) ->
        emit dpos td "DN(%s) has no SV in its rendezvous group" (xdesc td)
    | None -> ()
  in
  (* a collective run: adjacent DR;SR;DN;SV quadruples per round
     transfer, quadruples in ascending transfer id *)
  let check_coll_run (run : (int * Ir.Instr.call * int) list) =
    let expected = [| Ir.Instr.DR; Ir.Instr.SR; Ir.Instr.DN; Ir.Instr.SV |] in
    let step = ref 0 in
    let cur_t = ref (-1) in
    let last_t = ref (-1) in
    List.iter
      (fun (pos, c, t) ->
        if !step = 0 then begin
          cur_t := t;
          if t <= !last_t then
            emit pos t
              "collective round %s breaks the ascending transfer-id order of \
               its rounds — every processor must enter rounds in the same \
               order"
              (xdesc t)
        end;
        if t <> !cur_t then begin
          emit pos t
            "%s(%s) interleaves with the unfinished round %s — each \
             collective round must be one adjacent DR;SR;DN;SV quadruple"
            (Ir.Instr.call_name c) (xdesc t) (xdesc !cur_t);
          cur_t := t;
          step := 0
        end;
        if c <> expected.(!step) then
          emit pos t
            "%s(%s) where the collective round expects %s — each round runs \
             DR;SR;DN;SV back to back"
            (Ir.Instr.call_name c) (xdesc t)
            (Ir.Instr.call_name expected.(!step));
        step := !step + 1;
        if !step = 4 then begin
          last_t := !cur_t;
          step := 0;
          cur_t := -1
        end)
      run;
    if !step <> 0 then
      emit
        (match run with (p, _, _) :: _ -> p | [] -> 0)
        !cur_t "collective round %s is missing calls of its DR;SR;DN;SV \
                quadruple"
        (xdesc !cur_t)
  in
  let check_run (run : (int * Ir.Instr.call * int) list) =
    let colls, fringes = List.partition (fun (_, _, t) -> is_coll t) run in
    match (colls, fringes) with
    | [], _ -> check_fringe_run run
    | _, [] -> check_coll_run run
    | _, (fpos, fc, ft) :: _ ->
        emit fpos ft
          "%s(%s) shares a rendezvous group with synthesized collective \
           rounds — fringe transfers and collective rounds must not \
           interleave"
          (Ir.Instr.call_name fc) (xdesc ft);
        check_coll_run colls;
        check_fringe_run fringes
  in
  check_run

(* ------------------------------------------------------------------ *)
(* The checker: a worklist over the op CFG, then the order scan        *)
(* ------------------------------------------------------------------ *)

(** Successors of op [i]; [decisions.(i) = Some b] says a conditional
    jump's condition is [b] on every execution reaching it. *)
let flat_succs (decisions : bool option array) (ops : Ir.Flat.finstr array) i
    =
  match ops.(i) with
  | Ir.Flat.FJump t -> [ t ]
  | Ir.Flat.FJumpIfNot (_, t) -> (
      match decisions.(i) with
      | Some true -> [ i + 1 ]
      | Some false -> [ t ]
      | None -> [ i + 1; t ])
  | Ir.Flat.FHalt -> []
  | _ -> [ i + 1 ]

(** Every checker over [f], under the conditional-jump [decisions].
    Positions are the structured positions [src_of_op] maps each op to;
    end-of-program and table diagnostics sit one past the last of them. *)
let verify (decisions : bool option array) (f : Ir.Flat.t) : diag list =
  let ops = f.Ir.Flat.ops in
  let n = Array.length ops in
  let src i = f.Ir.Flat.src_of_op.(i) in
  let end_pos = 1 + Array.fold_left max (-1) f.Ir.Flat.src_of_op in
  let cx = make_ctx f in
  let diags = ref [] in
  let emit ~final ~pos checker xfer msg =
    if final then
      diags :=
        { d_checker = checker; d_pos = pos; d_xfer = xfer; d_msg = msg }
        :: !diags
  in
  let transfer = make_transfer cx ~emit in
  let step ~final i st = transfer ~final ~pos:(src i) ops.(i) st in
  (* forward worklist fixpoint over the op CFG; the lattice has finite
     height, so it terminates without widening. Ops the decided jumps
     cut off never acquire an in-state. *)
  let instate : state option array = Array.make n None in
  instate.(0) <-
    Some
      { phases = Array.make (Array.length cx.transfers) Idle;
        avail = Avail.empty;
        coll = Array.make (Array.length cx.slots) (-1) };
  let work = Queue.create () in
  Queue.push 0 work;
  let rounds = ref 0 in
  while not (Queue.is_empty work) do
    incr rounds;
    if !rounds > n * 10000 then
      failwith "Schedcheck: fixpoint did not converge";
    let i = Queue.pop work in
    let out = step ~final:false i (Option.get instate.(i)) in
    List.iter
      (fun j ->
        if j >= 0 && j < n then
          match instate.(j) with
          | None ->
              instate.(j) <- Some out;
              Queue.push j work
          | Some old ->
              let m = state_meet old out in
              if not (state_equal m old) then begin
                instate.(j) <- Some m;
                Queue.push j work
              end)
      (flat_succs decisions ops i)
  done;
  (* replay every reachable op once from its stable in-state, emitting;
     each [FHalt] reached checks the end state *)
  let ends = ref [] in
  Array.iteri
    (fun i st ->
      match st with
      | None -> ()
      | Some st -> (
          ignore (step ~final:true i st);
          match ops.(i) with
          | Ir.Flat.FHalt -> ends := !ends @ end_state_diags cx ~end_pos st
          | _ -> ()))
    instate;
  let flow = List.rev !diags @ table_diags cx ~end_pos @ !ends in
  (* Rendezvous order over maximal runs of reachable [FComm]s. A jump
     target starts a new run: two processors may reach it along
     different paths, so adjacency across the boundary is not an SPMD
     property. *)
  let order = ref [] in
  let check_run =
    order_check cx.prog cx.transfers ~emit_diag:(fun d -> order := d :: !order)
  in
  let target = Array.make (n + 1) false in
  Array.iter
    (function
      | Ir.Flat.FJump t | Ir.Flat.FJumpIfNot (_, t) ->
          if t >= 0 && t <= n then target.(t) <- true
      | _ -> ())
    ops;
  let run = ref [] in
  let flush () =
    if !run <> [] then check_run (List.rev !run);
    run := []
  in
  Array.iteri
    (fun i op ->
      if target.(i) then flush ();
      if Option.is_none instate.(i) then flush ()
      else
        match op with
        | Ir.Flat.FComm (c, t) -> run := (src i, c, t) :: !run
        | _ -> flush ())
    ops;
  flush ();
  List.stable_sort
    (fun a b -> compare a.d_pos b.d_pos)
    (flow @ List.rev !order)

(** Conditional-jump decisions for pruned checking, mapped from the
    structured {!Absint} summary through [src_of_op]: the jump of a
    decided [If] takes its live arm, a [Repeat] whose trip count is
    exactly 1 never loops back, and a [For] whose trip count is exactly
    0 never enters its body. [Repeat] is the only construct that jumps
    backward, and [For] the only one with a zero trip count. *)
let pruned_decisions (p : Ir.Instr.program) (f : Ir.Flat.t) :
    bool option array =
  let s = Absint.analyze p in
  let trips_are v pos =
    match Absint.trips s pos with
    | Some t -> Absint.equal_ival t (Absint.point v)
    | None -> false
  in
  Array.mapi
    (fun i op ->
      match op with
      | Ir.Flat.FJumpIfNot (_, target) -> (
          let pos = f.Ir.Flat.src_of_op.(i) in
          match Absint.decision s pos with
          | Some _ as d -> d
          | None ->
              if target <= i then
                if trips_are 1.0 pos then Some true else None
              else if trips_are 0.0 pos then Some false
              else None)
      | _ -> None)
    f.Ir.Flat.ops

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_flat (f : Ir.Flat.t) : diag list =
  verify (Array.make (Array.length f.Ir.Flat.ops) None) f

let check ?(prune = false) (p : Ir.Instr.program) : diag list =
  let f = Ir.Flat.flatten p in
  if prune then verify (pruned_decisions p f) f else check_flat f

let check_exn ?prune (p : Ir.Instr.program) : unit =
  match check ?prune p with
  | [] -> ()
  | ds ->
      failwith
        (Printf.sprintf "schedule verification failed (%d diagnostic%s):\n%s"
           (List.length ds)
           (if List.length ds = 1 then "" else "s")
           (String.concat "\n" (List.map diag_to_string ds)))
