(* Prints one line per grid cell: its label, the makespan's bits, the
   instruction count and an MD5 over every per-processor Stats field,
   the per-op completion counts and the staging-pool counts; then the
   test-scale Figure 6 points as hex floats. The output is compared
   against grid.expected. The 3x3 mesh partitions unevenly, so ranks
   differ in what they own of each array. *)

let benches = Programs.Suite.[ tomcatv; swm; simple; sp; jacobi ]

let collectives = [ Opt.Config.Opaque; Opt.Config.Auto ]
let meshes = [ (2, 2); (1, 5); (3, 3) ]

let digest (r : Sim.Engine.result) =
  let b = Buffer.create 1024 in
  Array.iter
    (fun (p : Sim.Stats.per_proc) ->
      let tm = p.Sim.Stats.times in
      Printf.bprintf b "%d %d %d %d %d %d %d %d %h %h %h %h\n"
        p.Sim.Stats.xfers_recv p.xfers_sent p.msgs_sent p.msgs_recv
        p.bytes_sent p.bytes_recv p.reduces p.cells tm.Sim.Stats.compute
        tm.comm_cpu tm.wait tm.finish)
    r.Sim.Engine.stats.Sim.Stats.procs;
  Array.iter (Printf.bprintf b "%d,") (Sim.Engine.op_counts r.Sim.Engine.engine);
  let fresh, reused = Sim.Engine.pool_counts r.Sim.Engine.engine in
  Printf.bprintf b "\n%d %d" fresh reused;
  Digest.to_hex (Digest.string (Buffer.contents b))

let () =
  let cache = Run.Cache.create () in
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      List.iter
        (fun (pr, pc) ->
          List.iter
            (fun (label, config, lib) ->
              List.iter
                (fun topo ->
                  List.iter
                    (fun coll ->
                      let spec =
                        let open Run.Spec in
                        default b.Programs.Bench_def.source
                        |> with_defines b.Programs.Bench_def.test_defines
                        |> with_config config
                        |> with_target Machine.T3d.machine lib
                        |> with_mesh pr pc |> with_topology topo
                        |> with_collective coll
                      in
                      let r = Run.Cache.run cache spec in
                      Printf.printf "%s/%s/%s/%s/%dx%d %h %d %s\n"
                        b.Programs.Bench_def.name label
                        (Machine.Topology.name topo)
                        (Opt.Config.collective_name coll)
                        pr pc r.Sim.Engine.time
                        r.Sim.Engine.stats.Sim.Stats.instructions (digest r))
                    collectives)
                Machine.Topology.all)
            Report.Experiment.paper_rows)
        meshes)
    benches;
  List.iter
    (fun (c : Report.Ping.curve) ->
      Printf.printf "figure6 %s/%s"
        c.Report.Ping.machine.Machine.Params.name
        c.Report.Ping.lib.Machine.Library.costs.Machine.Params.lib_name;
      List.iter
        (fun (p : Report.Ping.point) ->
          Printf.printf " %d:%h" p.Report.Ping.doubles p.Report.Ping.overhead)
        c.Report.Ping.points;
      print_newline ())
    (Report.Ping.figure6 ~sizes:[ 8; 64; 512 ] ~iters:10 ())
