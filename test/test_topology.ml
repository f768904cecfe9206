(** The topology-aware network model: dimension-order routing
    properties (including degenerate meshes), the ideal default's
    bit-identity with the seed's flat model across the paper rows,
    value-preservation and monotonicity under contention, per-link
    occupancy accounting, and the two pinned topology-sensitivity
    scenarios — a mesh-vs-torus collective-pick flip and an
    ideal-vs-mesh optimization-argmin flip. *)

open Commopt

let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Routing properties                                                  *)
(* ------------------------------------------------------------------ *)

let meshes = [ (1, 1); (1, 2); (2, 1); (2, 2); (1, 8); (8, 1); (3, 3); (3, 5); (4, 4) ]

(** Walk a route link by link, decoding [node*4 + dir] (0=E 1=W 2=S
    3=N), and check that every link leaves the node the message is
    currently at and that the walk ends at [dst]. On a mesh the walk
    must stay in bounds (boundary links are phantom: allocated but
    never routed over); on a torus movement wraps. *)
let walk topo ~pr ~pc ~src ~dst =
  let nlinks = Machine.Topology.nlinks ~pr ~pc in
  let route = Machine.Topology.route topo ~pr ~pc ~src ~dst in
  let r = ref (src / pc) and c = ref (src mod pc) in
  Array.iter
    (fun l ->
      Alcotest.(check bool) "link id in range" true (l >= 0 && l < nlinks);
      let node = l / 4 and dir = l land 3 in
      Alcotest.(check int) "link leaves the current node" ((!r * pc) + !c) node;
      (match dir with
      | 0 -> incr c
      | 1 -> decr c
      | 2 -> incr r
      | _ -> decr r);
      match topo with
      | Machine.Topology.Torus ->
          r := ((!r mod pr) + pr) mod pr;
          c := ((!c mod pc) + pc) mod pc
      | Machine.Topology.Mesh ->
          Alcotest.(check bool) "mesh route stays in bounds" true
            (!r >= 0 && !r < pr && !c >= 0 && !c < pc)
      | Machine.Topology.Ideal -> ())
    route;
  Alcotest.(check int) "route ends at dst" dst ((!r * pc) + !c);
  route

let test_routes_walk () =
  List.iter
    (fun (pr, pc) ->
      let n = pr * pc in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          Alcotest.(check int) "ideal routes are empty" 0
            (Array.length
               (Machine.Topology.route Machine.Topology.Ideal ~pr ~pc ~src
                  ~dst));
          List.iter
            (fun topo ->
              let route = walk topo ~pr ~pc ~src ~dst in
              Alcotest.(check int) "route length equals hops"
                (Machine.Topology.hops topo ~pr ~pc ~src ~dst)
                (Array.length route);
              if src = dst then
                Alcotest.(check int) "self-send routes are empty" 0
                  (Array.length route))
            [ Machine.Topology.Mesh; Machine.Topology.Torus ]
        done
      done)
    meshes

let test_torus_no_longer_than_mesh () =
  List.iter
    (fun (pr, pc) ->
      let n = pr * pc in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let h topo = Machine.Topology.hops topo ~pr ~pc ~src ~dst in
          Alcotest.(check bool) "torus never routes longer than mesh" true
            (h Machine.Topology.Torus <= h Machine.Topology.Mesh)
        done
      done;
      Alcotest.(check bool) "diameters ordered the same way" true
        (Machine.Topology.diameter Machine.Topology.Torus ~pr ~pc
         <= Machine.Topology.diameter Machine.Topology.Mesh ~pr ~pc))
    meshes

let test_wrap_shortcut () =
  (* the canonical wrap: ends of a 1x8 line are 7 mesh hops, 1 torus hop *)
  Alcotest.(check int) "mesh end-to-end" 7
    (Machine.Topology.hops Machine.Topology.Mesh ~pr:1 ~pc:8 ~src:0 ~dst:7);
  Alcotest.(check int) "torus wrap" 1
    (Machine.Topology.hops Machine.Topology.Torus ~pr:1 ~pc:8 ~src:0 ~dst:7)

(* ------------------------------------------------------------------ *)
(* Engine behaviour under topologies                                   *)
(* ------------------------------------------------------------------ *)

let tiny_src =
  {|
constant n = 6;
region R = [1..n, 1..n];
direction e = [0, 1]; direction w = [0, -1];
var A, B : [0..n+1, 0..n+1] float;
var s : float;
var t : int;
procedure main();
begin
  [0..n+1, 0..n+1] A := Index1 + 2.0 * Index2;
  for t := 1 to 2 do
    [R] B := 0.5 * (A@e + A@w);
    [R] s := +<< B;
    [R] A := B + s * 0.0001;
  end;
end;
|}

(** Every spec of the six paper rows, with the topology left at its
    default, must produce bit-identical results to the seed's
    pre-topology pipeline — here reconstructed by calling the compile
    and plan stages without any topology argument at all. *)
let test_ideal_default_is_seed_path () =
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      List.iter
        (fun (label, config, lib) ->
          let spec =
            Report.Experiment.bench_spec ~machine:Machine.T3d.machine ~lib
              ~config ~scale:`Test b
            |> Run.Spec.with_topology Machine.Topology.Ideal
          in
          let via_spec = Run.Spec.run spec in
          let prog =
            Zpl.Check.compile_string
              ~defines:b.Programs.Bench_def.test_defines
              b.Programs.Bench_def.source
          in
          let ir =
            Opt.Passes.compile ~machine:Machine.T3d.machine ~lib ~mesh:(2, 2)
              config prog
          in
          let flat = Ir.Flat.flatten ir in
          let seed =
            Sim.Engine.run
              (Sim.Engine.of_plans
                 (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib ~pr:2
                    ~pc:2 flat))
          in
          let what = b.Programs.Bench_def.name ^ "/" ^ label in
          Alcotest.(check int64)
            (what ^ ": time bits")
            (bits seed.Sim.Engine.time)
            (bits via_spec.Sim.Engine.time);
          Alcotest.(check int)
            (what ^ ": dynamic count")
            (Sim.Stats.dynamic_count seed.Sim.Engine.stats)
            (Sim.Stats.dynamic_count via_spec.Sim.Engine.stats);
          Alcotest.(check int)
            (what ^ ": messages")
            (Sim.Stats.total_messages seed.Sim.Engine.stats)
            (Sim.Stats.total_messages via_spec.Sim.Engine.stats);
          Alcotest.(check int)
            (what ^ ": bytes")
            (Sim.Stats.total_bytes seed.Sim.Engine.stats)
            (Sim.Stats.total_bytes via_spec.Sim.Engine.stats))
        Report.Experiment.paper_rows)
    Programs.Suite.paper_benchmarks

(** Contention reschedules, it never recomputes: under mesh/torus the
    message/byte/activation counts are unchanged, the simulated time
    can only grow (every arrival is delayed by at least the per-hop
    wire time), and the computed values still match the sequential
    oracle. *)
let test_topologies_preserve_results () =
  let b = Programs.Suite.tomcatv in
  List.iter
    (fun (label, config, lib) ->
      let ideal_spec =
        Report.Experiment.bench_spec ~machine:Machine.T3d.machine ~lib
          ~config ~scale:`Test b
      in
      let ideal = Run.Spec.run ideal_spec in
      List.iter
        (fun topology ->
          let spec = Run.Spec.with_topology topology ideal_spec in
          let res = Run.Spec.run spec in
          let what =
            Printf.sprintf "%s under %s" label (Machine.Topology.name topology)
          in
          Alcotest.(check int)
            (what ^ ": same dynamic count")
            (Sim.Stats.dynamic_count ideal.Sim.Engine.stats)
            (Sim.Stats.dynamic_count res.Sim.Engine.stats);
          Alcotest.(check int)
            (what ^ ": same messages")
            (Sim.Stats.total_messages ideal.Sim.Engine.stats)
            (Sim.Stats.total_messages res.Sim.Engine.stats);
          Alcotest.(check int)
            (what ^ ": same bytes")
            (Sim.Stats.total_bytes ideal.Sim.Engine.stats)
            (Sim.Stats.total_bytes res.Sim.Engine.stats);
          Alcotest.(check bool)
            (what ^ ": contention never speeds the program up")
            true
            (res.Sim.Engine.time >= ideal.Sim.Engine.time);
          if label = "baseline" || label = "pl" then
            let c = of_spec spec in
            Alcotest.(check bool)
              (what ^ ": matches the sequential oracle")
              true
              (first_divergence c res (run_oracle c) = None))
        [ Machine.Topology.Mesh; Machine.Topology.Torus ])
    Report.Experiment.paper_rows

(** Degenerate meshes: extent-1 dimensions, more processors than rows
    or columns (phantom ranks owning nothing), a single processor. The
    engine must terminate with a finite non-negative time and never
    divide by zero or route over boundary links (the route walk above
    covers the latter statically; this runs the full engine). *)
let test_degenerate_meshes_run () =
  List.iter
    (fun (pr, pc) ->
      List.iter
        (fun topology ->
          List.iter
            (fun collective ->
              let spec =
                let open Run.Spec in
                default tiny_src |> with_mesh pr pc |> with_topology topology
                |> with_collective collective
              in
              let res = Run.Spec.run spec in
              Alcotest.(check bool)
                (Printf.sprintf "%dx%d %s finite" pr pc
                   (Machine.Topology.name topology))
                true
                (Float.is_finite res.Sim.Engine.time
                && res.Sim.Engine.time >= 0.0))
            [ Opt.Config.Opaque; Opt.Config.Auto ])
        [ Machine.Topology.Mesh; Machine.Topology.Torus ])
    [ (1, 1); (1, 2); (1, 8); (8, 1); (3, 3) ]

let test_link_occupancy () =
  let spec topology =
    let open Run.Spec in
    default tiny_src |> with_mesh 2 2 |> with_topology topology
  in
  let mesh_res = Run.Spec.run (spec Machine.Topology.Mesh) in
  let occ = Sim.Engine.link_occupancy mesh_res.Sim.Engine.engine in
  Alcotest.(check int) "four directed links per node" (4 * 2 * 2)
    (Array.length occ);
  Alcotest.(check bool) "occupancies are non-negative" true
    (Array.for_all (fun x -> x >= 0.0) occ);
  Alcotest.(check bool) "some link was actually used" true
    (Array.exists (fun x -> x > 0.0) occ);
  let ideal_res = Run.Spec.run (spec Machine.Topology.Ideal) in
  Alcotest.(check int) "ideal tracks no links" 0
    (Array.length (Sim.Engine.link_occupancy ideal_res.Sim.Engine.engine));
  (* link grants follow the drain's execution order, which is
     deterministic: a second run repeats every occupancy bit *)
  let again = Run.Spec.run (spec Machine.Topology.Mesh) in
  Alcotest.(check int64) "a second mesh run repeats the time bits"
    (bits mesh_res.Sim.Engine.time)
    (bits again.Sim.Engine.time);
  Alcotest.(check (list int64)) "and every link's occupancy bits"
    (Array.to_list (Array.map bits occ))
    (Array.to_list
       (Array.map bits (Sim.Engine.link_occupancy again.Sim.Engine.engine)))

(* ------------------------------------------------------------------ *)
(* Pinned topology-sensitivity scenarios                               *)
(* ------------------------------------------------------------------ *)

(** On a wire-dominated line of 9, the dissemination schedule's wrap
    round (rank 8 -> 0: 8 mesh hops, 1 torus hop) makes the cost
    search's argmin topology-dependent: the torus keeps dissemination,
    the mesh abandons it. *)
let test_pinned_collective_pick_flip () =
  let machine =
    { Machine.T3d.machine with Machine.Params.wire_latency = 40e-6 }
  in
  let pick topology =
    Ir.Coll.alg_name
      (Opt.Collective.choose ~topology ~mesh:(1, 9) ~machine
         ~lib:Machine.T3d.pvm 9)
  in
  Alcotest.(check string) "ideal pick" "dissem" (pick Machine.Topology.Ideal);
  Alcotest.(check string) "torus pick" "dissem" (pick Machine.Topology.Torus);
  Alcotest.(check string) "mesh pick" "recdouble" (pick Machine.Topology.Mesh);
  Alcotest.(check bool) "mesh and torus disagree" true
    (pick Machine.Topology.Mesh <> pick Machine.Topology.Torus)

(** TOMCATV on a 4x4 T3D: under the ideal crossbar the fully optimized
    [pl] row is the fastest configuration, but under mesh contention
    its eagerly posted sends pay per-link queueing that the combined
    [cc] schedule avoids — the optimal rr/cc/pl mix depends on the
    topology. *)
let test_pinned_config_argmin_flip () =
  let time topology config =
    let spec =
      let open Run.Spec in
      default Programs.Tomcatv.source
      |> with_defines [ ("n", 24.); ("iters", 2.) ]
      |> with_config config |> with_mesh 4 4 |> with_topology topology
    in
    (Run.Spec.run spec).Sim.Engine.time
  in
  let open Machine.Topology in
  let cc_ideal = time Ideal Opt.Config.cc_cum
  and pl_ideal = time Ideal Opt.Config.pl_cum
  and cc_mesh = time Mesh Opt.Config.cc_cum
  and pl_mesh = time Mesh Opt.Config.pl_cum in
  Alcotest.(check bool) "ideal: pl is the argmin" true (pl_ideal < cc_ideal);
  Alcotest.(check bool) "mesh: cc is the argmin" true (cc_mesh < pl_mesh)

(** The bisection-stress synthetic: cost-searched collective rounds
    share the line's eastward links with the stencil messages, so the
    mesh pays real queueing that the ideal crossbar never sees — and
    the torus, whose wrap halves the collective routes, lands in
    between. *)
let test_contended_orders_topologies () =
  let time topology =
    let spec =
      let open Run.Spec in
      default Programs.Synthetic.contended_source
      |> with_defines (Programs.Synthetic.contended_defines ~n:16 ~iters:2)
      |> with_collective Opt.Config.Auto
      |> with_mesh 1 8 |> with_topology topology
    in
    (Run.Spec.run spec).Sim.Engine.time
  in
  let open Machine.Topology in
  let ideal = time Ideal and mesh = time Mesh and torus = time Torus in
  Alcotest.(check bool) "mesh slower than ideal" true (mesh > ideal);
  Alcotest.(check bool) "torus slower than ideal" true (torus > ideal);
  Alcotest.(check bool) "torus no slower than mesh" true (torus <= mesh)

let () =
  Alcotest.run "topology"
    [ ( "routing",
        [ Alcotest.test_case "routes walk src to dst" `Quick test_routes_walk;
          Alcotest.test_case "torus <= mesh hops" `Quick
            test_torus_no_longer_than_mesh;
          Alcotest.test_case "wrap shortcut" `Quick test_wrap_shortcut ] );
      ( "engine",
        [ Alcotest.test_case "ideal default = seed path" `Quick
            test_ideal_default_is_seed_path;
          Alcotest.test_case "topologies preserve results" `Quick
            test_topologies_preserve_results;
          Alcotest.test_case "degenerate meshes run" `Quick
            test_degenerate_meshes_run;
          Alcotest.test_case "link occupancy" `Quick test_link_occupancy ] );
      ( "pinned",
        [ Alcotest.test_case "collective pick flips mesh vs torus" `Quick
            test_pinned_collective_pick_flip;
          Alcotest.test_case "rr/cc/pl argmin flips ideal vs mesh" `Quick
            test_pinned_config_argmin_flip;
          Alcotest.test_case "contended synthetic orders topologies" `Quick
            test_contended_orders_topologies ] ) ]
