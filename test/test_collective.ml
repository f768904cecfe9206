(** Collective synthesis: the compiled DR/SR/DN/SV round schedules of
    all four algorithms must (a) pass Schedcheck — structured and flat —
    under every experiment row, (b) agree with the opaque vendor
    collective on every benchmark (bit-identical for max/min and for the
    rank-ordered ring/dissemination algorithms, within tolerance for
    reassociated sums), (c) reproduce the sequential oracle through the
    drain and across engines minted from one plan set, and (d) have a
    cost search that provably shifts its pick across machine models and
    mesh sizes. Mutation tests prove the checkers actually catch a
    mis-synthesized schedule. *)

open Commopt

let algs = Ir.Coll.all_algs
let alg_t = Alcotest.testable (Fmt.of_to_string Ir.Coll.alg_name) ( = )

let forced alg =
  { Opt.Config.pl_cum with Opt.Config.collective = Opt.Config.Forced alg }

let t3d = Machine.T3d.machine
let paragon = Machine.Paragon.machine

(** The spec of one bundled benchmark at test scale for a collective
    target. *)
let bench_spec ?(config = Opt.Config.pl_cum) ?(machine = t3d)
    ?(lib = Machine.T3d.pvm) ~mesh:(pr, pc) (b : Programs.Bench_def.t) =
  Run.Spec.(
    default b.Programs.Bench_def.source
    |> with_defines b.Programs.Bench_def.test_defines
    |> with_config config |> with_target machine lib |> with_mesh pr pc)

(** Compile one bundled benchmark at test scale for a collective target. *)
let compile_bench ?config ?machine ?lib ~mesh b =
  of_spec (bench_spec ?config ?machine ?lib ~mesh b)

(** Run [spec] and check it against the sequential oracle; the compiled
    artifacts and the result, both from one cache. *)
let verified spec =
  let cache = Run.Cache.create () in
  let res = verify ~cache spec in
  (of_spec ~cache spec, res)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let has_sum_reduce (b : Programs.Bench_def.t) =
  contains b.Programs.Bench_def.source "+<<"

(** The benchmarks with at least one full reduction (all of them, plus
    jacobi) — the grid the acceptance criteria run over. *)
let benches =
  match Programs.Suite.find "jacobi" with
  | Some j -> j :: Programs.Suite.paper_benchmarks
  | None -> Programs.Suite.paper_benchmarks

(* ------------------------------------------------------------------ *)
(* Cost search                                                         *)
(* ------------------------------------------------------------------ *)

(** The pick must shift across mesh sizes and across machine models:
    log-round algorithms win everywhere alpha dominates, but the
    power-of-two butterfly loses to dissemination off powers of two —
    at two distinct machine-model points, per the acceptance criteria. *)
let cost_search_shifts () =
  let pick ~machine ~lib nprocs =
    Opt.Collective.choose ~machine ~lib nprocs
  in
  Alcotest.check alg_t "T3D/PVM 4x4 -> recursive doubling" Ir.Coll.Recdouble
    (pick ~machine:t3d ~lib:Machine.T3d.pvm 16);
  Alcotest.check alg_t "T3D/PVM 3x3 -> dissemination" Ir.Coll.Dissem
    (pick ~machine:t3d ~lib:Machine.T3d.pvm 9);
  Alcotest.check alg_t "Paragon/csend 2x4 -> recursive doubling"
    Ir.Coll.Recdouble
    (pick ~machine:paragon ~lib:Machine.Paragon.nx_sync 8);
  Alcotest.check alg_t "Paragon/csend 3x3 -> dissemination" Ir.Coll.Dissem
    (pick ~machine:paragon ~lib:Machine.Paragon.nx_sync 9)

let cost_model_sane () =
  List.iter
    (fun lib ->
      List.iter
        (fun nprocs ->
          List.iter
            (fun alg ->
              let c = Opt.Collective.cost ~machine:t3d ~lib ~nprocs alg in
              Alcotest.(check bool)
                (Printf.sprintf "cost %s P=%d finite positive"
                   (Ir.Coll.alg_name alg) nprocs)
                true
                (Float.is_finite c && (c > 0.0 || nprocs = 1)))
            algs;
          (* ring serializes 2(P-1) rounds; any log-round algorithm must
             beat it once P > 2 under alpha-dominated costs *)
          if nprocs > 2 then
            Alcotest.(check bool)
              (Printf.sprintf "ring never optimal at P=%d" nprocs)
              true
              (Opt.Collective.cost ~machine:t3d ~lib ~nprocs Ir.Coll.Binomial
               < Opt.Collective.cost ~machine:t3d ~lib ~nprocs Ir.Coll.Ring))
        [ 1; 2; 4; 6; 8; 9; 12; 16 ])
    [ Machine.T3d.pvm; Machine.T3d.shmem ]

(** [Auto] must bake the cost search's pick into the transfer table. *)
let auto_picks_choice () =
  List.iter
    (fun (mesh, lib) ->
      let pr, pc = mesh in
      let nprocs = pr * pc in
      let want = Opt.Collective.choose ~machine:t3d ~lib nprocs in
      let config =
        { Opt.Config.pl_cum with Opt.Config.collective = Opt.Config.Auto }
      in
      let b = List.hd benches in
      let c = compile_bench ~config ~lib ~mesh b in
      let tagged =
        Array.to_list c.ir.Ir.Instr.transfers
        |> List.filter_map (fun (x : Ir.Transfer.t) -> x.Ir.Transfer.coll)
      in
      Alcotest.(check bool) "synthesized rounds exist" true (tagged <> []);
      List.iter
        (fun (d : Ir.Coll.desc) ->
          Alcotest.check alg_t "auto-picked algorithm" want d.Ir.Coll.cl_alg;
          Alcotest.(check int) "nprocs baked in" nprocs d.Ir.Coll.cl_nprocs)
        tagged)
    [ ((2, 2), Machine.T3d.pvm); ((3, 3), Machine.T3d.pvm);
      ((2, 2), Machine.T3d.shmem) ]

(* ------------------------------------------------------------------ *)
(* Schedcheck cleanliness                                              *)
(* ------------------------------------------------------------------ *)

(** Every benchmark x experiment row x forced algorithm (and auto) must
    be schedcheck-clean. *)
let schedcheck_clean_case (b : Programs.Bench_def.t) =
  Alcotest.test_case b.Programs.Bench_def.name `Quick (fun () ->
      let modes =
        Opt.Config.Auto :: List.map (fun a -> Opt.Config.Forced a) algs
      in
      List.iter
        (fun (label, config, lib) ->
          List.iter
            (fun collective ->
              let config = { config with Opt.Config.collective } in
              let c = compile_bench ~config ~lib ~mesh:(2, 2) b in
              match Analysis.Schedcheck.check c.ir with
              | [] -> ()
              | d :: _ ->
                  Alcotest.failf "%s/%s/%s: %s" b.Programs.Bench_def.name
                    label
                    (Opt.Config.collective_name collective)
                    (Analysis.Schedcheck.diag_to_string d))
            modes)
        Report.Experiment.paper_rows)

(* ------------------------------------------------------------------ *)
(* Agreement with the opaque collective                                *)
(* ------------------------------------------------------------------ *)

let float_bits = Int64.bits_of_float

let check_env_bitident what (want : Runtime.Values.value array)
    (got : Runtime.Values.value array) =
  Alcotest.(check int)
    (what ^ ": env size") (Array.length want) (Array.length got);
  Array.iteri
    (fun i w ->
      match (w, got.(i)) with
      | Runtime.Values.VFloat a, Runtime.Values.VFloat b ->
          if float_bits a <> float_bits b then
            Alcotest.failf "%s: scalar %d = %h, want %h" what i b a
      | a, b ->
          if a <> b then Alcotest.failf "%s: scalar %d differs" what i)
    want

(** Compare every array cell of two runs of the same program. With
    [tolerance = 0.0] this demands bit-identity (NaN-aware either way
    via {!Commopt.cell_diverges}). *)
let check_arrays what ~tolerance (prog : Zpl.Prog.t)
    (want : Sim.Engine.result) (got : Sim.Engine.result) =
  Array.iteri
    (fun aid (info : Zpl.Prog.array_info) ->
      let w = Sim.Engine.gather want.Sim.Engine.engine aid in
      let g = Sim.Engine.gather got.Sim.Engine.engine aid in
      Zpl.Region.iter info.a_region (fun pt ->
          let want = Runtime.Store.get w pt
          and got = Runtime.Store.get g pt in
          if cell_diverges ~tolerance ~got ~want then
            Alcotest.failf "%s: %s[%s] = %.17g, want %.17g" what
              info.Zpl.Prog.a_name
              (String.concat "," (Array.to_list (Array.map string_of_int pt)))
              got want))
    prog.Zpl.Prog.arrays

(** SPMD replication: after any run the scalar environment — which now
    includes synthesized-collective results — must be bit-identical on
    every simulated processor. *)
let check_replication what (res : Sim.Engine.result) =
  let procs = Sim.Engine.procs res.Sim.Engine.engine in
  let env = Sim.Engine.proc_env res.Sim.Engine.engine in
  let e0 = env procs.(0) in
  Array.iteri
    (fun rank p ->
      check_env_bitident
        (Printf.sprintf "%s: proc %d vs proc 0" what rank)
        e0 (env p))
    procs

(** One benchmark under one library: simulate opaque and each forced
    algorithm on the same mesh; verify each against the sequential
    oracle, against the opaque run, and across processors. Ring and
    dissemination combine in rank order from the identity — exactly the
    opaque fold — so they must match opaque bit for bit even for [+<<];
    the tree algorithms reassociate, so sums get a tolerance (and
    convergence loops guarded by a reassociated sum may legally take
    different trips, so array comparison uses the oracle tolerance
    too). *)
let agreement_case (lib : Machine.Library.t) (b : Programs.Bench_def.t) =
  let lib_name = lib.Machine.Library.costs.Machine.Params.lib_name in
  Alcotest.test_case
    (Printf.sprintf "%s/%s" b.Programs.Bench_def.name lib_name)
    `Slow
    (fun () ->
      let mesh = (2, 2) in
      let _, opaque_res = verified (bench_spec ~lib ~mesh b) in
      check_replication "opaque" opaque_res;
      List.iter
        (fun alg ->
          let what =
            Printf.sprintf "%s/%s/%s" b.Programs.Bench_def.name lib_name
              (Ir.Coll.alg_name alg)
          in
          let c, res = verified (bench_spec ~config:(forced alg) ~lib ~mesh b) in
          check_replication what res;
          let rank_ordered =
            match alg with
            | Ir.Coll.Ring | Ir.Coll.Dissem -> true
            | Ir.Coll.Binomial | Ir.Coll.Recdouble -> false
          in
          let bitident = rank_ordered || not (has_sum_reduce b) in
          if bitident then begin
            check_env_bitident what
              (Sim.Engine.final_env opaque_res.Sim.Engine.engine)
              (Sim.Engine.final_env res.Sim.Engine.engine);
            check_arrays what ~tolerance:0.0 c.prog opaque_res res
          end
          else check_arrays what ~tolerance:1e-9 c.prog opaque_res res)
        algs)

(* ------------------------------------------------------------------ *)
(* Drain differentials: the drain vs the sequential oracle, and across  *)
(* two engines minted from one plan set                                 *)
(* ------------------------------------------------------------------ *)

(** The rank-ordered rounds (ring, dissemination) and every max/min
    reduction must reproduce the sequential oracle bit for bit; the
    reassociating trees get the oracle tolerance. Two engines minted
    from the same plans must agree on time, scalars and arrays exactly:
    the mailboxes, staging pools and slot state of one run leak nothing
    into the next. *)
let drain_case (b : Programs.Bench_def.t) =
  Alcotest.test_case b.Programs.Bench_def.name `Slow (fun () ->
      let mesh = (2, 2) in
      List.iter
        (fun alg ->
          let what = Ir.Coll.alg_name alg in
          let spec = bench_spec ~config:(forced alg) ~mesh b in
          let cache = Run.Cache.create () in
          let c = of_spec ~cache spec in
          let rank_ordered =
            match alg with
            | Ir.Coll.Ring | Ir.Coll.Dissem -> true
            | Ir.Coll.Binomial | Ir.Coll.Recdouble -> false
          in
          let tolerance =
            if rank_ordered || not (has_sum_reduce b) then 0.0 else 1e-9
          in
          (match
             first_divergence ~tolerance c (Run.Cache.run cache spec)
               (run_oracle c)
           with
          | None -> ()
          | Some d -> Alcotest.failf "%s vs oracle: %a" what pp_divergence d);
          let mint () = Run.Cache.run cache spec in
          let first = mint () and second = mint () in
          let what = what ^ " second mint" in
          Alcotest.(check (float 0.0))
            (what ^ ": simulated time") first.Sim.Engine.time
            second.Sim.Engine.time;
          check_env_bitident what
            (Sim.Engine.final_env first.Sim.Engine.engine)
            (Sim.Engine.final_env second.Sim.Engine.engine);
          check_arrays what ~tolerance:0.0 c.prog first second)
        algs)

(* ------------------------------------------------------------------ *)
(* Degenerate meshes                                                   *)
(* ------------------------------------------------------------------ *)

(** P = 1 (all algorithms have zero rounds) and P = 2 strips. *)
let degenerate_meshes () =
  let b = List.hd benches in
  List.iter
    (fun mesh ->
      List.iter
        (fun alg ->
          let c, _ = verified (bench_spec ~config:(forced alg) ~mesh b) in
          Alcotest.(check (list Alcotest.reject))
            (Printf.sprintf "clean at %dx%d" (fst mesh) (snd mesh))
            []
            (Analysis.Schedcheck.check c.ir))
        algs)
    [ (1, 1); (1, 2); (2, 1); (1, 3) ]

(** The engine must reject a schedule synthesized for another mesh: a
    spec compiles and plans for one mesh, so only a flat program carried
    to another spec's target can get there. *)
let nprocs_mismatch () =
  let b = List.hd benches in
  let spec = bench_spec ~config:(forced Ir.Coll.Ring) ~mesh:(2, 2) b in
  let c = of_spec spec in
  match
    Sim.Engine.of_plans (Run.Spec.plan (Run.Spec.with_mesh 1 2 spec) c.flat)
  with
  | (_ : Sim.Engine.t) -> Alcotest.fail "mesh mismatch not rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "message names the algorithm and both meshes" true
        (contains msg "ring" && contains msg "synthesized for 4 processors"
        && contains msg "1x2")

(* ------------------------------------------------------------------ *)
(* Pinned-seed random programs                                         *)
(* ------------------------------------------------------------------ *)

(** Tiny seeded generator of reduction-heavy mini-ZPL programs: a
    stencil update, one to three reductions of random ops feeding a
    scalar each, and a loop whose guard uses a reduced value. Every
    algorithm must stay schedcheck-clean and agree with the opaque run
    on every generated program. *)
let random_program st =
  let ops = [| "+"; "max"; "min" |] in
  let nred = 1 + Random.State.int st 3 in
  let reduces =
    List.init nred (fun i ->
        let op = ops.(Random.State.int st (Array.length ops)) in
        Printf.sprintf "  [R] s%d := %s<< (A + B * %d.0);" i op (i + 1))
  in
  let svars =
    String.concat ", " (List.init nred (fun i -> Printf.sprintf "s%d" i))
  in
  let shift = if Random.State.bool st then "A@east" else "A@south" in
  Printf.sprintf
    {|
constant n = 8;
region R    = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction east  = [0, 1];
direction south = [1, 0];
var A, B : [BigR] float;
var t : int;
var %s : float;
procedure main();
begin
  [BigR] A := Index1 * 0.25 + Index2 * 0.125;
  [BigR] B := 1.0;
  for t := 1 to 3 do
    [R] B := 0.5 * (%s + B);
%s
    [R] A := B + s0 * 0.001;
  end;
end;
|}
    svars shift
    (String.concat "\n" reduces)

let random_programs_agree () =
  let st = Random.State.make [| 0x5eed; 42 |] in
  for _ = 1 to 8 do
    let src = random_program st in
    let spec = Run.Spec.(default src |> with_mesh 2 2) in
    let _, opaque_res = verified spec in
    List.iter
      (fun alg ->
        let c, res = verified (Run.Spec.with_config (forced alg) spec) in
        Alcotest.(check (list Alcotest.reject))
          "random program schedcheck-clean" []
          (Analysis.Schedcheck.check c.ir);
        check_replication (Ir.Coll.alg_name alg) res;
        check_arrays (Ir.Coll.alg_name alg) ~tolerance:1e-9 c.prog opaque_res
          res)
      algs
  done

(* ------------------------------------------------------------------ *)
(* Mutation: a mis-synthesized schedule must be caught                 *)
(* ------------------------------------------------------------------ *)

let is_coll_comm (transfers : Ir.Transfer.t array) = function
  | Ir.Instr.Comm (call, x) -> (
      match transfers.(x).Ir.Transfer.coll with
      | Some _ -> Some (call, x)
      | None -> None)
  | _ -> None

(** Drop instructions a structured mutator marks; recurses into control
    flow. [keep] decides per instruction. *)
let rec filter_code keep (code : Ir.Instr.instr list) =
  List.filter_map
    (function
      | Ir.Instr.Repeat (body, cond) ->
          Some (Ir.Instr.Repeat (filter_code keep body, cond))
      | Ir.Instr.For { var; lo; hi; step; body } ->
          Some (Ir.Instr.For { var; lo; hi; step; body = filter_code keep body })
      | Ir.Instr.If (cond, a, b) ->
          Some (Ir.Instr.If (cond, filter_code keep a, filter_code keep b))
      | i -> if keep i then Some i else None)
    code

(** Dropping one DR of a binomial round breaks the per-transfer call
    protocol; the diagnostic must name the algorithm and round via
    {!Ir.Transfer.describe}. *)
let mutation_dropped_dr () =
  let b = List.hd benches in
  let c = compile_bench ~config:(forced Ir.Coll.Binomial) ~mesh:(2, 2) b in
  let transfers = c.ir.Ir.Instr.transfers in
  let dropped = ref false in
  let keep i =
    match is_coll_comm transfers i with
    | Some (Ir.Instr.DR, _) when not !dropped ->
        dropped := true;
        false
    | _ -> true
  in
  let mutated = { c.ir with Ir.Instr.code = filter_code keep c.ir.Ir.Instr.code } in
  Alcotest.(check bool) "mutator found a DR to drop" true !dropped;
  match Analysis.Schedcheck.check mutated with
  | [] -> Alcotest.fail "dropped DR not caught"
  | diags ->
      Alcotest.(check bool) "diagnostic names the algorithm" true
        (List.exists
           (fun d -> contains (Analysis.Schedcheck.diag_to_string d) "binomial")
           diags)

(** Dropping a whole round (all four calls) is the classic dropped
    rendezvous; the collective checker counts rounds between the
    bookends and must report the missing one at [CollFin]. *)
let mutation_dropped_round () =
  let b = List.hd benches in
  let c = compile_bench ~config:(forced Ir.Coll.Binomial) ~mesh:(2, 2) b in
  let transfers = c.ir.Ir.Instr.transfers in
  (* drop every call of the first collective transfer *)
  let victim = ref (-1) in
  let keep i =
    match is_coll_comm transfers i with
    | Some (_, x) when !victim = -1 || !victim = x ->
        victim := x;
        false
    | _ -> true
  in
  let mutated = { c.ir with Ir.Instr.code = filter_code keep c.ir.Ir.Instr.code } in
  Alcotest.(check bool) "mutator found a round to drop" true (!victim >= 0);
  match
    List.filter
      (fun (d : Analysis.Schedcheck.diag) ->
        d.Analysis.Schedcheck.d_checker = Analysis.Schedcheck.Collective)
      (Analysis.Schedcheck.check mutated)
  with
  | [] -> Alcotest.fail "dropped round not caught by the collective checker"
  | diags ->
      Alcotest.(check bool) "diagnostic reports the dropped rendezvous" true
        (List.exists
           (fun d ->
             contains (Analysis.Schedcheck.diag_to_string d) "rounds")
           diags)

(** The same dropped-rendezvous mutation applied post-flattening must be
    caught by [check_flat], which checks an edited op vector directly. *)
let mutation_flat () =
  let b = List.hd benches in
  let c = compile_bench ~config:(forced Ir.Coll.Binomial) ~mesh:(2, 2) b in
  let transfers = c.flat.Ir.Flat.transfers in
  let victim = ref (-1) in
  (* replace the victim round's calls with address-preserving no-op
     jumps so every other jump target stays valid *)
  let ops =
    Array.mapi
      (fun i op ->
        match op with
        | Ir.Flat.FComm (_, x)
          when Option.is_some transfers.(x).Ir.Transfer.coll
               && (!victim = -1 || !victim = x) ->
            victim := x;
            Ir.Flat.FJump (i + 1)
        | op -> op)
      c.flat.Ir.Flat.ops
  in
  Alcotest.(check bool) "mutator found a flat round to drop" true
    (!victim >= 0);
  let mutated = { c.flat with Ir.Flat.ops } in
  match Analysis.Schedcheck.check_flat mutated with
  | [] -> Alcotest.fail "flat mutation not caught"
  | d :: _ ->
      Alcotest.(check bool) "flat diagnostic flagged" true
        (String.length (Analysis.Schedcheck.diag_to_string d) > 0)

(* ------------------------------------------------------------------ *)

(* The integer stage count is exact: 2^k is the least power of two
   covering n, and it agrees with the float log2/ceil computation it
   replaced over the whole range any plausible mesh reaches. *)
let ceil_log2_exact () =
  for n = 2 to 4100 do
    let k = Ir.Coll.ceil_log2 n in
    Alcotest.(check bool)
      (Printf.sprintf "2^k covers %d" n)
      true
      (1 lsl k >= n);
    Alcotest.(check bool)
      (Printf.sprintf "2^(k-1) does not cover %d" n)
      true
      (1 lsl (k - 1) < n);
    Alcotest.(check int)
      (Printf.sprintf "agrees with the float path at %d" n)
      (int_of_float (Float.ceil (Float.log2 (float_of_int n))))
      k
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "collective"
    [ ( "cost-search",
        [ Alcotest.test_case "pick shifts across machines and meshes" `Quick
            cost_search_shifts;
          Alcotest.test_case "cost model sane" `Quick cost_model_sane;
          Alcotest.test_case "integer ceil_log2 exact" `Quick ceil_log2_exact;
          Alcotest.test_case "auto bakes the picked algorithm" `Quick
            auto_picks_choice ] );
      ("schedcheck-clean", List.map schedcheck_clean_case benches);
      ( "agrees-with-opaque (pvm)",
        List.map (agreement_case Machine.T3d.pvm) benches );
      ( "agrees-with-opaque (shmem)",
        List.map (agreement_case Machine.T3d.shmem) benches );
      ("drain-differential", List.map drain_case benches);
      ( "meshes",
        [ Alcotest.test_case "degenerate meshes" `Quick degenerate_meshes;
          Alcotest.test_case "nprocs mismatch rejected" `Quick nprocs_mismatch
        ] );
      ( "random-programs",
        [ Alcotest.test_case "pinned-seed property" `Slow
            random_programs_agree ] );
      ( "mutation",
        [ Alcotest.test_case "dropped DR caught" `Quick mutation_dropped_dr;
          Alcotest.test_case "dropped round caught" `Quick
            mutation_dropped_round;
          Alcotest.test_case "flat mutation caught" `Quick mutation_flat ] )
    ]
