(** The three workloads. Each has an untraced pass, which calls only
    public, default-configured entry points, and a traced twin, which
    makes the same calls one layer at a time inside {!Span} spans and
    must reproduce the untraced pass's results bit for bit. *)

open Commopt

type scale = [ `Bench | `Test ]

(** Operations of one pass: how many were attempted and how many
    raised. *)
type tally = { mutable attempted : int; mutable failed : int }

(** What one untraced pass produced. *)
type pass = {
  tally : tally;  (** operations: exhibits, specs or cells *)
  digest : string;  (** MD5 of the pass's outputs in canonical order *)
  ok : bool;  (** the workload's own output checks held *)
  extra : (string * float) list;
      (** workload-specific numbers for the per-layer report *)
}

let now = Unix.gettimeofday
let md5 s = Digest.to_hex (Digest.string s)
let tally () = { attempted = 0; failed = 0 }

(** Run one operation, counting it; an exception marks it failed and
    yields [None] instead of aborting the pass. *)
let attempt t label f =
  t.attempted <- t.attempted + 1;
  match f () with
  | v -> Some v
  | exception
      (( Sim.Engine.Deadlock _ | Sim.Engine.Instruction_limit _ | Failure _
       | Invalid_argument _ | Not_found ) as e) ->
      t.failed <- t.failed + 1;
      prerr_endline (label ^ " failed: " ^ Printexc.to_string e);
      None

let shuffle ~seed xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Engine counters gathered by the traced runs                         *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable cells : float;
  mutable msgs : float;
  mutable bytes : float;
  mutable instructions : float;
  mutable sim_compute : float;
  mutable sim_comm : float;
  mutable sim_wait : float;
  c_lock : Mutex.t;
}

let counts () =
  { cells = 0.; msgs = 0.; bytes = 0.; instructions = 0.; sim_compute = 0.;
    sim_comm = 0.; sim_wait = 0.; c_lock = Mutex.create () }

let add_run c (res : Sim.Engine.result) =
  let st = res.Sim.Engine.stats in
  Mutex.lock c.c_lock;
  Array.iter
    (fun (p : Sim.Stats.per_proc) ->
      c.cells <- c.cells +. float_of_int p.Sim.Stats.cells;
      c.sim_compute <- c.sim_compute +. p.Sim.Stats.times.Sim.Stats.compute;
      c.sim_comm <- c.sim_comm +. p.Sim.Stats.times.Sim.Stats.comm_cpu;
      c.sim_wait <- c.sim_wait +. p.Sim.Stats.times.Sim.Stats.wait)
    st.Sim.Stats.procs;
  c.msgs <- c.msgs +. float_of_int (Sim.Stats.total_messages st);
  c.bytes <- c.bytes +. float_of_int (Sim.Stats.total_bytes st);
  c.instructions <- c.instructions +. float_of_int st.Sim.Stats.instructions;
  Mutex.unlock c.c_lock

(* ------------------------------------------------------------------ *)
(* The layered twin of Run.Spec.build and Run.Spec.engine_of           *)
(* ------------------------------------------------------------------ *)

(** Parsed programs shared by the tasks of one traced pass, as the plan
    cache's program memo shares them: a racing duplicate parse is
    benign, the first insert wins. *)
type progs = { tbl : (string, Zpl.Prog.t) Hashtbl.t; p_lock : Mutex.t }

let progs () = { tbl = Hashtbl.create 8; p_lock = Mutex.create () }

let parse tk progs (spec : Run.Spec.t) =
  let key = Run.Spec.program_digest spec in
  Mutex.lock progs.p_lock;
  let hit = Hashtbl.find_opt progs.tbl key in
  Mutex.unlock progs.p_lock;
  match hit with
  | Some p -> p
  | None ->
      let p =
        Span.layer tk "zpl.check" (fun () ->
            Zpl.Check.compile_string ~defines:spec.Run.Spec.defines
              spec.Run.Spec.source)
      in
      Mutex.lock progs.p_lock;
      if not (Hashtbl.mem progs.tbl key) then Hashtbl.add progs.tbl key p;
      Mutex.unlock progs.p_lock;
      p

let compile tk progs (spec : Run.Spec.t) : compiled * Sim.Engine.plans =
  let prog = parse tk progs spec in
  let machine = spec.Run.Spec.machine and lib = spec.Run.Spec.lib in
  let ir =
    Span.layer tk "opt.passes" (fun () ->
        Opt.Passes.compile ~check:false ~machine ~lib ~mesh:spec.Run.Spec.mesh
          ~topology:spec.Run.Spec.topology spec.Run.Spec.config prog)
  in
  if spec.Run.Spec.check then begin
    match Span.layer tk "analysis.schedcheck" (fun () -> Analysis.Schedcheck.check ir) with
    | [] -> ()
    | d :: _ -> failwith (Analysis.Schedcheck.diag_to_string d)
  end;
  let flat = Span.layer tk "ir.flatten" (fun () -> Ir.Flat.flatten ir) in
  let pr, pc = spec.Run.Spec.mesh in
  let plans =
    Span.layer tk "engine.plan" (fun () ->
        Sim.Engine.plan ~topology:spec.Run.Spec.topology ~machine ~lib ~pr ~pc
          flat)
  in
  ({ prog; config = spec.Run.Spec.config; ir; flat }, plans)

let simulate tk counts (spec : Run.Spec.t) plans =
  let eng =
    Span.layer tk "engine.mint" (fun () ->
        Sim.Engine.of_plans ~limit:spec.Run.Spec.limit plans)
  in
  let res = Span.layer tk "engine.run" (fun () -> Sim.Engine.run eng) in
  add_run counts res;
  res

(* ------------------------------------------------------------------ *)
(* report: every exhibit of the paper report                           *)
(* ------------------------------------------------------------------ *)

module Report_w = struct
  type exhibit = Fig6 | T3d | Paragon

  (** The seed orders the three data exhibits; the rendered report is
      always in paper order. *)
  type inputs = { scale : scale; order : exhibit list }

  (** The numbers behind the rendered text, which rounds them. *)
  type outputs = {
    curves : Report.Ping.curve list;
    grid : Report.Experiment.bench_result list;
    pgrid : Report.Experiment.bench_result list;
  }

  let inputs ~seed scale = { scale; order = shuffle ~seed [ Fig6; T3d; Paragon ] }

  let figure6 = function
    | `Bench -> Report.Ping.figure6 ()
    | `Test -> Report.Ping.figure6 ~sizes:[ 8; 64; 512 ] ~iters:10 ()

  let render o : string =
    let b = Buffer.create 65536 in
    let section title body =
      Printf.bprintf b "\n%s\n%s\n\n%s\n" title
        (String.make (String.length title) '=')
        body
    in
    let open Report.Figures in
    section "Figure 3: machine parameters" (machine_table ());
    section "Figure 5: IRONMAN bindings" (bindings_table ());
    section "Figure 7: benchmark programs" (benchmarks_table ());
    section "Figure 6: exposed communication costs" (fig6 o.curves);
    section "Figure 8: eliminating communication" (fig8 o.grid);
    section "Figure 10(a): performance using PVM" (fig10 ~part:`A o.grid);
    section "Figure 10(b): performance using SHMEM" (fig10 ~part:`B o.grid);
    section "Figure 11: combining heuristics, counts" (fig11 o.grid);
    section "Figure 12: combining heuristics, times" (fig12 o.grid);
    List.iteri
      (fun i (r : Report.Experiment.bench_result) ->
        section
          (Printf.sprintf "Table %d: %s" (i + 1)
             r.Report.Experiment.bench.Programs.Bench_def.name)
          (appendix_table r))
      o.grid;
    section "Extension: Paragon whole-program results" (paragon_appendix o.pgrid);
    Buffer.contents b

  let rows_equal (a : Report.Experiment.bench_result list) b =
    List.equal
      (fun (x : Report.Experiment.bench_result) (y : Report.Experiment.bench_result) ->
        List.equal
          (fun (r : Report.Experiment.row) (s : Report.Experiment.row) ->
            r.label = s.label && r.static_count = s.static_count
            && r.dynamic_count = s.dynamic_count
            && Int64.equal (Int64.bits_of_float r.time) (Int64.bits_of_float s.time))
          x.rows y.rows)
      a b

  let pass inp : pass * outputs option =
    let t = tally () in
    let curves = ref None and grid = ref None and pgrid = ref None in
    List.iter
      (function
        | Fig6 -> curves := attempt t "figure6" (fun () -> figure6 inp.scale)
        | T3d ->
            grid := attempt t "t3d grid" (fun () -> Report.Experiment.grid ~scale:inp.scale ())
        | Paragon ->
            pgrid :=
              attempt t "paragon grid" (fun () ->
                  Report.Experiment.paragon_grid ~scale:inp.scale ()))
      inp.order;
    let out =
      match (!curves, !grid, !pgrid) with
      | Some curves, Some grid, Some pgrid -> Some { curves; grid; pgrid }
      | _ -> None
    in
    let text = Option.bind out (fun o -> attempt t "render" (fun () -> render o)) in
    ( { tally = t;
        digest = Option.fold ~none:"" ~some:md5 text;
        ok = Option.is_some text;
        extra = [] },
      out )

  (* Report.Experiment.run_grid, one layer at a time: the same specs,
     the same default-width pool, a program memo per grid. *)
  let traced_grid tr counts ~machine ~rows ~scale =
    let progs = progs () in
    let tasks =
      List.concat_map
        (fun b -> List.map (fun row -> (b, row)) rows)
        Programs.Suite.paper_benchmarks
    in
    let results =
      Sim.Pool.parmap
        (fun ((b : Programs.Bench_def.t), (label, config, lib)) ->
          Span.task ~op:true tr (b.Programs.Bench_def.name ^ "/" ^ label) (fun tk ->
              let spec = Report.Experiment.bench_spec ~machine ~lib ~config ~scale b in
              let c, plans = compile tk progs spec in
              let res = simulate tk counts spec plans in
              { Report.Experiment.label;
                config;
                lib;
                static_count = Ir.Count.static_count c.ir;
                dynamic_count = Sim.Stats.dynamic_count res.Sim.Engine.stats;
                time = res.Sim.Engine.time }))
        tasks
    in
    let n = List.length rows in
    List.mapi
      (fun i bench ->
        { Report.Experiment.bench; rows = List.filteri (fun j _ -> j / n = i) results })
      Programs.Suite.paper_benchmarks

  (** The traced pass, and whether it reproduced [want]. *)
  let traced inp (want : outputs) counts : Span.t * bool =
    let tr = Span.create "report" in
    let curves = ref [] and grid = ref [] and pgrid = ref [] in
    List.iter
      (function
        | Fig6 ->
            curves :=
              Span.task tr "figure6" (fun tk ->
                  Span.layer tk "report.ping" (fun () -> figure6 inp.scale))
        | T3d ->
            grid :=
              traced_grid tr counts ~machine:Machine.T3d.machine
                ~rows:Report.Experiment.paper_rows ~scale:inp.scale
        | Paragon ->
            pgrid :=
              traced_grid tr counts ~machine:Machine.Paragon.machine
                ~rows:Report.Experiment.paragon_rows ~scale:inp.scale)
      inp.order;
    let got = { curves = !curves; grid = !grid; pgrid = !pgrid } in
    let (_ : string) =
      Span.task tr "render" (fun tk ->
          Span.layer tk "report.figures" (fun () -> render got))
    in
    Span.finish tr;
    (* rendering is a function of these, so equal numbers render equally *)
    let points (cs : Report.Ping.curve list) = List.map (fun (c : Report.Ping.curve) -> c.points) cs in
    ( tr,
      points got.curves = points want.curves
      && rows_equal got.grid want.grid
      && rows_equal got.pgrid want.pgrid )
end

(* ------------------------------------------------------------------ *)
(* sweep: a spec grid larger than the plan cache                       *)
(* ------------------------------------------------------------------ *)

module Sweep_w = struct
  type inputs = { items : Run.Sweep.item list; memo_passes : int }

  (** Per item in input order: the untraced cold rows, and whether the
      rerun pass found the item in the plan cache. *)
  type outputs = { cold : Run.Sweep.row list; rerun_hit : bool list }

  (* Paper benchmarks plus Jacobi at test sizes clamped to n <= 16 and
     one iteration, so compilation (parse, optimize, flatten, plan) is
     a large share of each spec. *)
  let inputs ~seed scale =
    let benches =
      match scale with
      | `Bench -> Programs.Suite.paper_benchmarks @ [ Programs.Suite.jacobi ]
      | `Test -> [ Programs.Suite.tomcatv ]
    in
    let items =
      List.concat_map
        (fun (b : Programs.Bench_def.t) ->
          let defines =
            List.map
              (fun (k, v) ->
                if k = "iters" then (k, 1.0)
                else if k = "n" then (k, Float.min v 16.0)
                else (k, v))
              b.Programs.Bench_def.test_defines
          in
          List.concat_map
            (fun (row, config, lib) ->
              List.concat_map
                (fun collective ->
                  List.concat_map
                    (fun topology ->
                      List.map
                        (fun (pr, pc) ->
                          let spec =
                            let open Run.Spec in
                            default b.Programs.Bench_def.source
                            |> with_defines defines |> with_config config
                            |> with_collective collective
                            |> with_target Machine.T3d.machine lib
                            |> with_mesh pr pc |> with_topology topology
                          in
                          { Run.Sweep.label =
                              Printf.sprintf "%s/%s/%s/%s/%dx%d"
                                b.Programs.Bench_def.name row
                                (Opt.Config.collective_name collective)
                                (Machine.Topology.name topology) pr pc;
                            spec })
                        [ (2, 2); (4, 4) ])
                    Machine.Topology.all)
                [ Opt.Config.Opaque; Opt.Config.Auto ])
            Report.Experiment.paper_rows)
        benches
    in
    { items = shuffle ~seed items;
      memo_passes = (match scale with `Bench -> 100 | `Test -> 5) }

  let same_row (a : Run.Sweep.row) (b : Run.Sweep.row) =
    a.r_label = b.r_label && a.r_static = b.r_static && a.r_dynamic = b.r_dynamic
    && Int64.equal (Int64.bits_of_float a.r_time) (Int64.bits_of_float b.r_time)

  let digest (rows : Run.Sweep.row list) =
    rows
    |> List.map (fun (r : Run.Sweep.row) ->
           Printf.sprintf "%s %h %d %d\n" r.r_label r.r_time r.r_static r.r_dynamic)
    |> List.sort String.compare |> String.concat "" |> md5

  (** A cold pass on a fresh service, a rerun after [reset_memo], then
      [memo_passes] passes answered from the memo. *)
  let pass inp : pass * outputs option =
    let n = List.length inp.items in
    let t = tally () in
    (* one Run.Sweep.run call answers a whole pass, so a raise fails
       every spec of that pass *)
    let sweep label svc =
      t.attempted <- t.attempted + n;
      match Run.Sweep.run svc inp.items with
      | s -> Some s
      | exception e ->
          t.failed <- t.failed + n;
          prerr_endline (label ^ " failed: " ^ Printexc.to_string e);
          None
    in
    let svc = Run.Sweep.create () in
    let t0 = now () in
    let cold = sweep "cold" svc in
    let t1 = now () in
    Run.Sweep.reset_memo svc;
    let rerun = sweep "rerun" svc in
    let t2 = now () in
    let memo =
      List.init inp.memo_passes (fun i -> sweep (Printf.sprintf "memo pass %d" (i + 1)) svc)
    in
    let t3 = now () in
    match (cold, rerun, List.filter_map Fun.id memo) with
    | Some cold, Some rerun, memo when List.length memo = inp.memo_passes ->
        let rows (s : Run.Sweep.summary) = s.rows in
        let sum f = List.fold_left (fun acc s -> acc + f s) 0 (cold :: rerun :: memo) in
        let fresh = sum (fun s -> s.pool_fresh) and reused = sum (fun s -> s.pool_reused) in
        let fn = float_of_int n in
        ( { tally = t;
            digest = digest cold.rows;
            ok =
              List.for_all
                (fun s -> List.equal same_row (rows s) cold.rows)
                (rerun :: memo)
              && List.for_all (fun (s : Run.Sweep.summary) -> s.memo_hits = n) memo;
            extra =
              [ ("run.sweep.cold_specs_per_s", fn /. (t1 -. t0));
                ("run.sweep.rerun_specs_per_s", fn /. (t2 -. t1));
                ("run.sweep.memo_specs_per_s",
                  fn *. float_of_int inp.memo_passes /. (t3 -. t2));
                ("run.cache.hits", float_of_int rerun.hits);
                ("run.cache.misses", float_of_int rerun.misses);
                ("run.cache.evictions", float_of_int rerun.counters.Run.Cache.evictions);
                ("run.cache.hit_ratio", float_of_int rerun.hits /. fn);
                ("run.sweep.memo_ratio",
                  float_of_int (sum (fun s -> s.memo_hits)) /. float_of_int t.attempted);
                ("run.sweep.pool_reuse_ratio",
                  float_of_int reused /. float_of_int (max 1 (fresh + reused))) ] },
          Some
            { cold = cold.rows;
              rerun_hit = List.map (fun (r : Run.Sweep.row) -> r.r_hit) rerun.rows } )
    | _ -> ({ tally = t; digest = ""; ok = false; extra = [] }, None)

  let row_of (it : Run.Sweep.item) (c : compiled) (res : Sim.Engine.result) =
    { Run.Sweep.r_label = it.label;
      r_hit = false;
      r_memo = false;
      r_time = res.Sim.Engine.time;
      r_static = Ir.Count.static_count c.ir;
      r_dynamic = Sim.Stats.dynamic_count res.Sim.Engine.stats;
      r_wall = 0.0 }

  (** The traced pass, on the same default-width pool [Run.Sweep.run]
      uses. The rerun replays the untraced rerun's cache decisions: a
      spec the cache answered is fetched from a service left in the
      post-cold state (a rerun only inserts specs it does not look up
      again, so those are still cached there); any other spec is
      compiled layer by layer. *)
  let traced inp (want : outputs) counts : Span.t * bool =
    let svc = Run.Sweep.create () in
    ignore (Run.Sweep.run svc inp.items);
    let cache = Run.Sweep.cache svc in
    let tr = Span.create "sweep" in
    let progs = progs () in
    let spec_task (it : Run.Sweep.item) compile_it =
      Span.task ~op:true tr it.label (fun tk ->
          let c, plans = compile_it tk in
          row_of it c (simulate tk counts it.spec plans))
    in
    let cold =
      Sim.Pool.parmap
        (fun (it : Run.Sweep.item) -> spec_task it (fun tk -> compile tk progs it.spec))
        inp.items
    in
    let rerun =
      Sim.Pool.parmap
        (fun ((it : Run.Sweep.item), hit) ->
          spec_task it (fun tk ->
              if hit then
                let a = Span.layer tk "run.cache" (fun () -> Run.Cache.artifact cache it.spec) in
                ( { prog = a.Run.Spec.a_prog; config = it.spec.Run.Spec.config;
                    ir = a.Run.Spec.a_ir; flat = a.Run.Spec.a_flat },
                  a.Run.Spec.a_plans )
              else compile tk progs it.spec))
        (List.combine inp.items want.rerun_hit)
    in
    let memo =
      List.init inp.memo_passes (fun i ->
          Span.task tr (Printf.sprintf "memo pass %d" (i + 1)) (fun tk ->
              Span.layer tk "run.sweep" (fun () -> Run.Sweep.run svc inp.items)))
    in
    Span.finish tr;
    ( tr,
      List.for_all
        (fun rows -> List.equal same_row rows want.cold)
        (cold :: rerun :: List.map (fun (s : Run.Sweep.summary) -> s.rows) memo) )
end

(* ------------------------------------------------------------------ *)
(* verify: zplc run --check --verify on mesh and torus                 *)
(* ------------------------------------------------------------------ *)

module Verify_w = struct
  type cell = { label : string; spec : Run.Spec.t }
  type inputs = cell list

  (** Per cell: simulated time, static and dynamic counts, messages and
      bytes — the numbers [zplc run] prints. *)
  type outputs = string list

  let inputs ~seed scale : inputs =
    List.concat_map
      (fun (b : Programs.Bench_def.t) ->
        List.map
          (fun topology ->
            let defines, (pr, pc) =
              match scale with
              | `Bench -> (b.Programs.Bench_def.bench_defines, b.Programs.Bench_def.bench_mesh)
              | `Test -> (b.Programs.Bench_def.test_defines, (2, 2))
            in
            let spec =
              let open Run.Spec in
              default b.Programs.Bench_def.source
              |> with_defines defines |> with_config Opt.Config.pl_cum
              |> with_collective Opt.Config.Auto
              |> with_target Machine.T3d.machine Machine.T3d.pvm
              |> with_mesh pr pc |> with_topology topology |> with_check true
            in
            { label =
                Printf.sprintf "%s/%s" b.Programs.Bench_def.name
                  (Machine.Topology.name topology);
              spec })
          [ Machine.Topology.Mesh; Machine.Topology.Torus ])
      Programs.Suite.paper_benchmarks
    |> shuffle ~seed

  let line cell (c : compiled) (res : Sim.Engine.result) =
    let st = res.Sim.Engine.stats in
    Printf.sprintf "%s %h %d %d %d %d\n" cell.label res.Sim.Engine.time
      (static_count c) (Sim.Stats.dynamic_count st) (Sim.Stats.total_messages st)
      (Sim.Stats.total_bytes st)

  let report_divergence cell d =
    Format.eprintf "%s: oracle check FAILED at %a@." cell.label pp_divergence d

  let pass (inp : inputs) : pass * outputs option =
    let t = tally () in
    let ok = ref true and hits = ref 0 and misses = ref 0 in
    let lines =
      List.map
        (fun cell ->
          attempt t cell.label (fun () ->
              let cache = Run.Cache.create () in
              let c = of_spec ~cache cell.spec in
              let res = Run.Cache.run cache cell.spec in
              (match first_divergence c res (run_oracle c) with
              | None -> ()
              | Some d ->
                  ok := false;
                  report_divergence cell d);
              let k = Run.Cache.counters cache in
              hits := !hits + k.Run.Cache.hits;
              misses := !misses + k.Run.Cache.misses;
              line cell c res))
        inp
    in
    if List.mem None lines then
      ({ tally = t; digest = ""; ok = false; extra = [] }, None)
    else
      let lines = List.filter_map Fun.id lines in
      ( { tally = t;
          digest = md5 (String.concat "" (List.sort String.compare lines));
          ok = !ok;
          extra =
            [ ("run.cache.hits", float_of_int !hits);
              ("run.cache.misses", float_of_int !misses);
              ("run.cache.hit_ratio",
                float_of_int !hits /. float_of_int (max 1 (!hits + !misses))) ] },
        Some lines )

  (** The traced pass. Each cell compiles into a fresh program memo, as
      each untraced cell uses a fresh plan cache; the untraced cell's
      second lookup, a cache hit, has no traced twin. *)
  let traced (inp : inputs) (want : outputs) counts : Span.t * bool =
    let tr = Span.create "verify" in
    let ok = ref true in
    let got =
      List.map
        (fun cell ->
          Span.task ~op:true tr cell.label (fun tk ->
              let c, plans = compile tk (progs ()) cell.spec in
              let res = simulate tk counts cell.spec plans in
              let oracle = Span.layer tk "seqexec.run" (fun () -> run_oracle c) in
              (match Span.layer tk "engine.gather" (fun () -> first_divergence c res oracle) with
              | None -> ()
              | Some d ->
                  ok := false;
                  report_divergence cell d);
              line cell c res))
        inp
    in
    Span.finish tr;
    (tr, !ok && List.equal String.equal got want)
end
