(** [zplc] — the mini-ZPL communication-optimizing compiler driver.

    {v
    zplc check    prog.zpl                  parse + typecheck
    zplc dump     prog.zpl -O cc --stage ir dump a compilation stage
    zplc counts   prog.zpl                  static counts per optimization level
    zplc analyze  prog.zpl --verify-counts  static comm-volume prediction
    zplc lint     prog.zpl | --all          verify schedules (all experiment rows)
    zplc run      prog.zpl -O pl --lib shmem -p 4x4 --verify --check
    zplc bench    --name tomcatv            one benchmark, all paper rows
    zplc list                               bundled benchmark programs
    v}

    Every simulation request is a {!Run.Spec.t} assembled by the shared
    {!Cli.Cmdline} flag grammar; compiled artifacts are answered by a
    {!Run.Cache}, so commands that touch several configurations of one
    program parse it once. *)

open Cmdliner
open Commopt
open Cli

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

(* The programs [lint] and [analyze] walk: every bundled benchmark at
   test scale under [--all], then each named PROG with the -D defines. *)
let targets ~verb ~all progs defines =
  let ts =
    (if all then
       List.map
         (fun (b : Programs.Bench_def.t) ->
           ( b.Programs.Bench_def.name,
             b.Programs.Bench_def.source,
             b.Programs.Bench_def.test_defines ))
         Programs.Suite.all
     else [])
    @ List.map (fun p -> (p, Cmdline.load_source p, defines)) progs
  in
  if ts = [] then
    Fmt.failwith "nothing to %s: name a program or pass --all" verb;
  ts

let check_cmd =
  let run src defines =
    Cmdline.handle (fun () ->
        let c =
          of_spec
            Run.Spec.(
              default (Cmdline.load_source src) |> with_defines defines)
        in
        Printf.printf "%s: OK — %d arrays, %d scalars, %d statements\n" src
          (Array.length c.prog.Zpl.Prog.arrays)
          (Array.length c.prog.Zpl.Prog.scalars)
          (Zpl.Prog.count_stmts c.prog.Zpl.Prog.body))
  in
  Cmd.v (Cmd.info "check" ~doc:"parse and typecheck a program")
    Term.(const run $ Cmdline.src_arg $ Cmdline.defines_arg)

let dump_cmd =
  let stage_arg =
    Arg.(
      value
      & opt (enum [ ("ast", `Ast); ("ir", `Ir); ("flat", `Flat) ]) `Ir
      & info [ "stage" ] ~docv:"STAGE" ~doc:"ast | ir | flat")
  in
  let run spec stage =
    Cmdline.handle (fun () ->
        let c = of_spec spec in
        match stage with
        | `Ast -> print_endline (Zpl.Pretty.program_to_string c.prog)
        | `Ir -> print_endline (Ir.Printer.program_to_annotated_string c.ir)
        | `Flat -> print_endline (Ir.Printer.flat_to_string c.flat))
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"dump a compilation stage (IRONMAN calls visible)")
    Term.(const run $ Cmdline.spec_term $ stage_arg)

let counts_cmd =
  let run src defines =
    Cmdline.handle (fun () ->
        (* the program parses once; no engine is planned *)
        let base =
          Run.Spec.(default (Cmdline.load_source src) |> with_defines defines)
        in
        let prog = Run.Spec.parse base in
        let rows =
          List.map
            (fun config ->
              let _, ir, _ =
                Run.Spec.compile ~prog (Run.Spec.with_config config base)
              in
              [ Opt.Config.name config;
                string_of_int (Ir.Count.static_count ir);
                string_of_int (Ir.Count.static_member_count ir) ])
            Opt.Config.[ baseline; rr_only; cc_cum; pl_cum; pl_max_latency ]
        in
        print_endline
          (Report.Table.render
             ~header:[ "optimization"; "static transfers"; "member messages" ]
             rows))
  in
  Cmd.v
    (Cmd.info "counts" ~doc:"static communication counts per optimization level")
    Term.(const run $ Cmdline.src_arg $ Cmdline.defines_arg)

let analyze_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "analyze every bundled benchmark (at test scale) instead of PROG")
  in
  let progs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PROG"
          ~doc:"mini-ZPL source files or bundled benchmark names")
  in
  let rows_arg =
    Arg.(
      value & flag
      & info [ "rows" ]
          ~doc:
            "iterate the six paper experiment rows (overrides -O/--lib) \
             instead of the single configuration the flags describe")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify-counts" ]
          ~doc:
            "run the engine and require the static prediction to reproduce \
             its dynamic counters exactly (message/byte/transfer counts per \
             processor, comm-CPU to 1e-9) and the interval bounds to \
             bracket them; exit nonzero on any mismatch")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"append one JSON object per analyzed configuration to FILE")
  in
  let run progs defines all rows config collective (machine, lib) (pr, pc)
      topology verify json =
    Cmdline.handle (fun () ->
        let targets = targets ~verb:"analyze" ~all progs defines in
        let row_list =
          if rows then
            List.map
              (fun (label, config, lib) ->
                (label, config, Machine.T3d.machine, lib))
              Report.Experiment.paper_rows
          else
            [ ( Opt.Config.name (Cmdline.with_collective collective config),
                Cmdline.with_collective collective config,
                machine,
                lib ) ]
        in
        let jout =
          Option.map
            (fun path -> open_out_gen [ Open_creat; Open_append ] 0o644 path)
            json
        in
        Fun.protect
          ~finally:(fun () -> Option.iter close_out jout)
          (fun () ->
            let bad = ref 0 in
            List.iter
              (fun (name, src, defines) ->
                let cache = Run.Cache.create () in
                List.iter
                  (fun (label, config, machine, lib) ->
                    let spec =
                      Run.Spec.(
                        default src |> with_defines defines
                        |> with_config config |> with_target machine lib
                        |> with_mesh pr pc |> with_topology topology)
                    in
                    let t = Run.Predict.analyze ~cache spec in
                    let s = Run.Predict.summarize t in
                    Option.iter
                      (fun oc ->
                        output_string oc (Run.Predict.to_json ~name t);
                        output_char oc '\n')
                      jout;
                    if verify then
                      match Run.Predict.verify t with
                      | [] ->
                          Printf.printf
                            "%s [%s] %s: OK — %d sites, %d messages \
                             predicted = measured, dynamic count %d\n"
                            name label
                            (Machine.Topology.name topology)
                            (List.length t.Run.Predict.p_sites)
                            s.Run.Predict.s_messages_pred
                            s.Run.Predict.s_dyn_pred
                      | ms ->
                          bad := !bad + List.length ms;
                          List.iter
                            (fun m ->
                              Printf.printf "%s [%s] %s: MISMATCH %s\n" name
                                label
                                (Machine.Topology.name topology)
                                m)
                            ms
                    else begin
                      Printf.printf "== %s [%s] %s ==\n" name label
                        (Machine.Topology.name topology);
                      print_endline
                        (Report.Table.render ~header:Run.Predict.site_header
                           (Run.Predict.site_rows t));
                      Printf.printf
                        "messages  : %s bound, %d predicted, %d measured\n"
                        (Analysis.Absint.string_of_ival
                           s.Run.Predict.s_messages_bound)
                        s.Run.Predict.s_messages_pred
                        s.Run.Predict.s_messages_meas;
                      Printf.printf
                        "bytes     : %s bound, %d predicted, %d measured\n"
                        (Analysis.Absint.string_of_ival
                           s.Run.Predict.s_bytes_bound)
                        s.Run.Predict.s_bytes_pred s.Run.Predict.s_bytes_meas;
                      Printf.printf
                        "comm cpu  : %.6g predicted, %.6g measured (max/proc)\n"
                        s.Run.Predict.s_cpu_pred s.Run.Predict.s_cpu_meas;
                      Printf.printf
                        "dyn count : %s bound, %d predicted, %d measured\n\n"
                        (Analysis.Absint.string_of_ival
                           s.Run.Predict.s_dyn_bound)
                        s.Run.Predict.s_dyn_pred s.Run.Predict.s_dyn_meas
                    end)
                  row_list)
              targets;
            if !bad > 0 then
              Fmt.failwith
                "static/dynamic verification failed: %d mismatch(es)" !bad))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "static communication-volume analysis: per-site activation bounds \
          and per-processor message/byte/comm-CPU predictions from the \
          abstract scalar domain, cross-checked against the engine with \
          --verify-counts")
    Term.(
      const run $ progs_arg $ Cmdline.defines_arg $ all_arg $ rows_arg
      $ Cmdline.config_arg $ Cmdline.collective_arg $ Cmdline.lib_arg
      $ Cmdline.mesh_arg $ Cmdline.topology_arg $ verify_arg $ json_arg)

let lint_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"lint every bundled benchmark (at test scale) instead of PROG")
  in
  let progs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PROG"
          ~doc:"mini-ZPL source files or bundled benchmark names")
  in
  let prune_arg =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:
            "skip branches the abstract scalar interpretation proves \
             infeasible (precision-only: anything accepted unpruned stays \
             accepted)")
  in
  let run progs defines all collective (pr, pc) topology prune =
    Cmdline.handle (fun () ->
        let targets = targets ~verb:"lint" ~all progs defines in
        let bad = ref 0 in
        List.iter
          (fun (name, src, defines) ->
            let base =
              Run.Spec.(
                default src |> with_defines defines
                |> with_mesh pr pc |> with_topology topology)
            in
            let prog = Run.Spec.parse base in
            (* dead-scalar warnings are per program, independent of the
               optimization row; they never fail the lint *)
            List.iter
              (fun w ->
                Printf.printf "%s: warning: %s\n" name
                  (Analysis.Deadscalar.warning_to_string w))
              (Analysis.Deadscalar.run prog);
            List.iter
              (fun (label, config, lib) ->
                (* paper rows are T3D rows; the collective synthesis
                   targets the row's library on the linted mesh and
                   topology (topology only shifts the auto pick) *)
                let _, ir, _ =
                  Run.Spec.compile ~prog
                    Run.Spec.(
                      base
                      |> with_config (Cmdline.with_collective collective config)
                      |> with_target Machine.T3d.machine lib)
                in
                match Analysis.Schedcheck.check ~prune ir with
                | [] -> Printf.printf "%s [%s]: OK\n" name label
                | diags ->
                    bad := !bad + List.length diags;
                    List.iter
                      (fun d ->
                        Printf.printf "%s [%s]: %s\n" name label
                          (Analysis.Schedcheck.diag_to_string d))
                      diags)
              Report.Experiment.paper_rows)
          targets;
        if !bad > 0 then
          Fmt.failwith "schedule verification failed: %d diagnostic(s)" !bad)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "statically verify communication schedules under all experiment \
          rows (schedcheck: protocol, races, availability, rendezvous \
          order, collective rounds)")
    Term.(
      const run $ progs_arg $ Cmdline.defines_arg $ all_arg
      $ Cmdline.collective_arg $ Cmdline.mesh_arg $ Cmdline.topology_arg
      $ prune_arg)

let run_cmd =
  let verify_arg =
    Arg.(value & flag & info [ "verify" ] ~doc:"check against the sequential oracle")
  in
  let run src spec verify_flag check_flag =
    Cmdline.handle (fun () ->
        let spec = Run.Spec.with_check check_flag spec in
        let cache = Run.Cache.create () in
        let c = of_spec ~cache spec in
        let res = Run.Cache.run cache spec in
        let st = res.Sim.Engine.stats in
        let pr, pc = spec.Run.Spec.mesh in
        Printf.printf "program        : %s\n" src;
        Printf.printf "optimization   : %s\n"
          (Opt.Config.name spec.Run.Spec.config);
        Printf.printf "machine        : %s / %s, %dx%d procs%s\n"
          spec.Run.Spec.machine.Machine.Params.name
          spec.Run.Spec.lib.Machine.Library.costs.Machine.Params.lib_name pr
          pc
          (match spec.Run.Spec.topology with
          | Machine.Topology.Ideal -> ""
          | topo ->
              Printf.sprintf ", %s topology" (Machine.Topology.name topo));
        Printf.printf "static count   : %d\n" (static_count c);
        Printf.printf "dynamic count  : %d (per-processor max)\n"
          (Sim.Stats.dynamic_count st);
        Printf.printf "messages       : %d (%d bytes)\n"
          (Sim.Stats.total_messages st) (Sim.Stats.total_bytes st);
        Printf.printf "simulated time : %.6f s\n" res.Sim.Engine.time;
        if verify_flag then
          match
            first_divergence c res (run_oracle ~limit:spec.Run.Spec.limit c)
          with
          | None -> Printf.printf "oracle check   : PASS\n"
          | Some d ->
              Fmt.failwith "oracle check FAILED at the first divergent cell: %a"
                pp_divergence d)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"simulate a program on a machine model")
    Term.(
      const run $ Cmdline.src_arg $ Cmdline.spec_term $ verify_arg
      $ Cmdline.check_arg)

let bench_cmd =
  let name_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "name" ] ~docv:"BENCH" ~doc:"benchmark name (see 'zplc list')")
  in
  let run name quick =
    Cmdline.handle (fun () ->
        match Programs.Suite.find name with
        | None -> Fmt.failwith "unknown benchmark %S" name
        | Some b ->
            let scale = Cmdline.scale_of_quick quick in
            let r = Report.Experiment.run_bench ~scale b in
            print_endline (Report.Figures.appendix_table r))
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"run one benchmark through all paper experiment rows")
    Term.(const run $ name_arg $ Cmdline.quick_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Programs.Bench_def.t) ->
        Printf.printf "%-8s %s\n" b.Programs.Bench_def.name
          b.Programs.Bench_def.description)
      Programs.Suite.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"list bundled benchmark programs")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "zplc" ~version:"1.0.0"
       ~doc:"mini-ZPL compiler with machine-independent communication optimization")
    [
      check_cmd;
      dump_cmd;
      counts_cmd;
      analyze_cmd;
      lint_cmd;
      run_cmd;
      bench_cmd;
      list_cmd;
    ]

(* Source loading happens while cmdliner evaluates spec_term, before any
   command body's [Cmdline.handle] guard — catch those failures here so a
   bad program name stays a clean "error:" line with exit 1. *)
let () =
  exit
    (try Cmd.eval' ~catch:false main with
    | Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        1)
