(** The experiment driver: runs one benchmark under one experiment row of
    the paper's Figure 9 (optimization selection + communication library)
    and records static count, dynamic count and simulated execution time —
    the three columns of the paper's appendix tables.

    Every run is described by a {!Run.Spec.t}, and a grid of them is
    answered by one {!Run.Sweep.run} on a fresh service: each driver
    call has a private cache, so six rows over one benchmark parse and
    type-check the program once, while cross-{e call} hits can never
    corrupt a wall-clock measurement of the grid. *)

type row = {
  label : string;  (** the paper's row name, e.g. "pl with shmem" *)
  config : Opt.Config.t;
  lib : Machine.Library.t;
  static_count : int;
  dynamic_count : int;
  time : float;  (** simulated seconds *)
}

(** The six experiment rows of the paper's Figure 9 (the last two use the
    T3D SHMEM library). *)
let paper_rows : (string * Opt.Config.t * Machine.Library.t) list =
  [ ("baseline", Opt.Config.baseline, Machine.T3d.pvm);
    ("rr", Opt.Config.rr_only, Machine.T3d.pvm);
    ("cc", Opt.Config.cc_cum, Machine.T3d.pvm);
    ("pl", Opt.Config.pl_cum, Machine.T3d.pvm);
    ("pl with shmem", Opt.Config.pl_cum, Machine.T3d.shmem);
    ("pl with max latency", Opt.Config.pl_max_latency, Machine.T3d.shmem) ]

let mesh_of scale (b : Programs.Bench_def.t) =
  match scale with `Bench -> b.Programs.Bench_def.bench_mesh | `Test -> (2, 2)

(** The spec of one benchmark at one experiment row: the benchmark's
    source and scale defines, the row's config and library, the given
    machine, the scale's mesh. The compile target is the simulation
    target — collective synthesis searches this machine/library's cost
    model and bakes the mesh size into its round structure. *)
let bench_spec ~(machine : Machine.Params.t)
    ~(lib : Machine.Library.t) ~(config : Opt.Config.t) ~scale
    (b : Programs.Bench_def.t) : Run.Spec.t =
  let defines =
    match scale with
    | `Test -> b.Programs.Bench_def.test_defines
    | `Bench -> b.Programs.Bench_def.bench_defines
  in
  let pr, pc = mesh_of scale b in
  let open Run.Spec in
  default b.Programs.Bench_def.source
  |> with_defines defines |> with_config config |> with_target machine lib
  |> with_mesh pr pc

type bench_result = { bench : Programs.Bench_def.t; rows : row list }

(** Run [rows] for every benchmark in [benches] as one {!Run.Sweep.run}
    on a fresh service, fanning the independent (benchmark x row)
    simulations over its domain pool ([domains] workers, default
    {!Sim.Pool.default_domains}; [1] runs serially). The service's cache
    parses each benchmark once across rows; each task owns its engine,
    so results — and their order — are bit-identical to the serial
    run. *)
let run_grid ~(machine : Machine.Params.t)
    ~(rows : (string * Opt.Config.t * Machine.Library.t) list) ?domains
    ~scale (benches : Programs.Bench_def.t list) :
    bench_result list =
  let items =
    List.concat_map
      (fun b ->
        List.map
          (fun (label, config, lib) ->
            { Run.Sweep.label;
              spec = bench_spec ~machine ~lib ~config ~scale b })
          rows)
      benches
  in
  let swept = (Run.Sweep.run ?domains (Run.Sweep.create ()) items).rows in
  (* |rows| consecutive results per benchmark, input order *)
  let nrows = List.length rows in
  List.mapi
    (fun i bench ->
      { bench;
        rows =
          List.map2
            (fun (label, config, lib) (r : Run.Sweep.row) ->
              { label;
                config;
                lib;
                static_count = r.Run.Sweep.r_static;
                dynamic_count = r.Run.Sweep.r_dynamic;
                time = r.Run.Sweep.r_time })
            rows
            (List.filteri (fun k _ -> k / nrows = i) swept) })
    benches

(** Run the paper's six rows for one benchmark on the T3D. *)
let run_bench ?(scale = `Bench) (b : Programs.Bench_def.t) : bench_result =
  List.hd (run_grid ~machine:Machine.T3d.machine ~rows:paper_rows ~scale [ b ])

(** The full grid behind Figures 8-12 and Tables 1-4. *)
let grid ?(scale = `Bench) ?domains () : bench_result list =
  run_grid ~machine:Machine.T3d.machine ~rows:paper_rows ?domains ~scale
    Programs.Suite.paper_benchmarks

let find_row (r : bench_result) label =
  List.find (fun (x : row) -> x.label = label) r.rows

let baseline_of (r : bench_result) = find_row r "baseline"

(** Value scaled to the benchmark's baseline, as in the paper's figures. *)
let scaled (r : bench_result) (f : row -> float) (x : row) =
  f x /. f (baseline_of r)

(* ------------------------------------------------------------------ *)
(* Extension: the Paragon rows the paper omitted                       *)
(* ------------------------------------------------------------------ *)

(** Section 3.2 of the paper reports that on the Paragon "the asynchronous
    primitives saw little performance improvement or, in most cases,
    performance degradation", and then omits the whole-program Paragon
    results. With a simulator we can afford to produce them: the fully
    optimized configuration under each NX primitive set. *)
let paragon_rows : (string * Opt.Config.t * Machine.Library.t) list =
  [ ("baseline csend/crecv", Opt.Config.baseline, Machine.Paragon.nx_sync);
    ("pl with csend/crecv", Opt.Config.pl_cum, Machine.Paragon.nx_sync);
    ("pl with isend/irecv", Opt.Config.pl_cum, Machine.Paragon.nx_async);
    ("pl with hsend/hrecv", Opt.Config.pl_cum, Machine.Paragon.nx_callback) ]

let paragon_grid ?(scale = `Bench) () : bench_result list =
  run_grid ~machine:Machine.Paragon.machine ~rows:paragon_rows ~scale
    Programs.Suite.paper_benchmarks
