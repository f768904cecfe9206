(** The paper-reproduction harness: regenerates every table and figure of
    the evaluation section and prints them as one report, or runs one
    focused benchmark series per mode flag.

    {v
    dune exec bench/main.exe             full report (bench scale)
    dune exec bench/main.exe -- --quick  small problem sizes (CI-fast);
                                         also runs the kernel series
    dune exec bench/main.exe -- --kernel row-path vs per-point kernel
                                         throughput + serial vs parallel
                                         grid wall time
    dune exec bench/main.exe -- --comm   wire-plan communication runtime:
                                         2-node ping micro plus a
                                         comm-heavy tomcatv grid
    dune exec bench/main.exe -- --collective
                                         opaque vendor reductions vs the
                                         four synthesized collective
                                         schedules across mesh sizes
    dune exec bench/main.exe -- --sweep  content-addressed plan cache:
                                         a cold pass then a warm pass
                                         over a benchmark x row x
                                         collective spec grid
    dune exec bench/main.exe -- --contention
                                         topology-aware network model:
                                         per-config simulated times and
                                         argmin per topology, pinned
                                         collective picks
    v}

    Every series goes through the same machinery: one rotated best-of-3
    trial runner, flat [(key, value)] entries, and one emit step that
    prints them, writes [BENCH_<mode>.json] at bench scale only
    ([--quick] never overwrites a committed artifact), and applies the
    drift-aware [--baseline] gate. *)

open Commopt

let section title body =
  Printf.printf "\n%s\n%s\n\n%s\n" title (String.make (String.length title) '=') body

let print_report ~scale () =
  Printf.printf
    "Reproduction of: Choi & Snyder, \"Quantifying the Effects of \
     Communication Optimizations\" (ICPP 1997)\n";
  Printf.printf
    "All numbers from the deterministic machine simulator; see DESIGN.md \
     and EXPERIMENTS.md.\n";
  (match scale with
  | `Test -> Printf.printf "Scale: QUICK (reduced problem sizes, 2x2 mesh)\n"
  | `Bench -> Printf.printf "Scale: paper-like problem sizes on an 8x8 (64-node) simulated T3D\n");
  section "Figure 3: machine parameters" (Report.Figures.machine_table ());
  section "Figure 5: IRONMAN bindings" (Report.Figures.bindings_table ());
  section "Figure 7: benchmark programs" (Report.Figures.benchmarks_table ());
  let sizes =
    match scale with
    | `Test -> [ 8; 64; 512 ]
    | `Bench -> Report.Ping.default_sizes
  in
  let iters = match scale with `Test -> 10 | `Bench -> 50 in
  let curves = Report.Ping.figure6 ~sizes ~iters () in
  section "Figure 6: exposed communication costs" (Report.Figures.fig6 curves);
  let grid = Report.Experiment.grid ~scale () in
  section "Figure 8: eliminating communication" (Report.Figures.fig8 grid);
  section "Figure 10(a): performance using PVM"
    (Report.Figures.fig10 ~part:`A grid);
  section "Figure 10(b): performance using SHMEM"
    (Report.Figures.fig10 ~part:`B grid);
  section "Figure 11: combining heuristics, counts" (Report.Figures.fig11 grid);
  section "Figure 12: combining heuristics, times" (Report.Figures.fig12 grid);
  List.iteri
    (fun i r ->
      section
        (Printf.sprintf "Table %d: %s" (i + 1)
           r.Report.Experiment.bench.Programs.Bench_def.name)
        (Report.Figures.appendix_table r))
    grid;
  let pgrid = Report.Experiment.paragon_grid ~scale () in
  section "Extension: Paragon whole-program results"
    (Report.Figures.paragon_appendix pgrid)

(* --------------------------------------------------------------- *)
(* Timing, trial spread (drift) and the one trial runner             *)
(* --------------------------------------------------------------- *)

(* Monotonic trial timing: [Unix.gettimeofday] is wall-clock, so an NTP
   step mid-trial yields negative or garbage durations that corrupt
   best-of-3 selection and the --baseline regression gate. The bechamel
   clock is CLOCK_MONOTONIC (ns since an arbitrary origin), immune to
   clock steps. *)
let wall f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let t1 = Monotonic_clock.now () in
  (r, Int64.to_float (Int64.sub t1 t0) /. 1e9)

type reps = {
  runs : int;
  total : float;  (** wall seconds over all runs *)
  fastest : float;  (** the quickest single run, in seconds *)
}

(** Run [f] repeatedly until it has consumed at least [budget] wall
    seconds (at least once). *)
let repeat_for ~budget f =
  let rec go runs total fastest =
    if total >= budget && runs > 0 then { runs; total; fastest }
    else
      let _, dt = wall f in
      go (runs + 1) (total +. dt) (Float.min fastest dt)
  in
  go 0 0.0 infinity

(** Largest relative spread, (max - min) / max, observed across the
    rotated trials of any measured series in this process. Interference
    only ever subtracts throughput, so a wide spread between trials of
    the {e same} series means the host was too noisy for a best-of-N
    number to be trusted as a measurement — which is exactly when a
    --baseline comparison should warn instead of failing the run. *)
let max_drift = ref 0.0

(** Fold one series' per-trial measurements into {!max_drift}. *)
let note_spread (trials : float list) =
  match List.filter (fun x -> x > 0.0) trials with
  | [] | [ _ ] -> ()
  | xs ->
      let hi = List.fold_left Float.max neg_infinity xs in
      let lo = List.fold_left Float.min infinity xs in
      let d = (hi -. lo) /. hi in
      if d > !max_drift then max_drift := d

let drift_threshold = 0.10

(** The one trial runner: three interleaved trials of every thunk in
    [group], keeping each thunk's best. A thunk returns its throughput
    (higher is better) and a payload; the payload of its best trial is
    returned. Interference on a shared box only ever subtracts
    throughput, so the max of several short trials is the estimate
    closest to the real capability — and interleaving the group
    decorrelates any slow phase of the machine from one member. The
    starting thunk rotates across trials: with a fixed order, whichever
    member runs first after a warm-up gap systematically measures low,
    which once read as a phantom ~4% regression before the rotation.
    Every member's spread feeds the drift gate. *)
let best_of_3 (group : (unit -> float * 'a) array) : 'a array =
  let n = Array.length group in
  let best = Array.make n None and seen = Array.make n [] in
  for trial = 0 to 2 do
    for j = 0 to n - 1 do
      let i = (j + trial) mod n in
      let score, payload = group.(i) () in
      seen.(i) <- score :: seen.(i);
      match best.(i) with
      | Some (b, _) when b >= score -> ()
      | _ -> best.(i) <- Some (score, payload)
    done
  done;
  Array.iter note_spread seen;
  Array.map (fun b -> snd (Option.get b)) best

(** A benchmark cell: a spec and the flat program compiled from it
    once, outside every timed region. *)
let cell spec = (spec, (of_spec spec).flat)

(** One engine trial of a cell on its spec's target, repeated for
    [budget] seconds. Engine construction ({!Run.Spec.plan} and
    [of_plans], wire-plan compilation included) stays inside the timed
    region, so the runtime is charged for its own planning — amortized
    over the program's iterations, exactly as a real run would pay it.
    Minor words are sampled around [Engine.run] only, since plan-time
    allocation is the planned one-off cost; allocation is deterministic,
    so the last run's count stands for every run. *)
let engine_trial ~budget (spec, flat) =
  let mw = ref 0.0 and last = ref None in
  let reps =
    repeat_for ~budget (fun () ->
        let engine = Sim.Engine.of_plans (Run.Spec.plan spec flat) in
        let w0 = Gc.minor_words () in
        let r = Sim.Engine.run engine in
        mw := Gc.minor_words () -. w0;
        last := Some r)
  in
  (reps, !mw, Option.get !last)

(* --------------------------------------------------------------- *)
(* Entries, the artifact writer and the --baseline gate              *)
(* --------------------------------------------------------------- *)

(** A value of the flat BENCH_*.json artifacts: numbers for
    measurements, strings for categorical results (chosen algorithms,
    argmin labels). *)
type jval = Num of float | Str of string

let nums kvs = List.map (fun (k, v) -> (k, Num v)) kvs

(** Write one flat BENCH artifact: the benchmark description, the build
    profile stamps, the GC stamp, then [entries] in order. Keys and
    every string value go through the shared {!Run.Json} writers, so a
    hostile label (quotes, newlines, control bytes) cannot corrupt the
    document. The GC stamp records this process's cumulative minor and
    promoted words at write time: artifacts from the same mode are
    written at the same point of the run, so baseline diffs of these
    keys surface allocation regressions the throughput gate is too
    noisy to catch. *)
let write_bench_json path ~benchmark entries =
  let b = Buffer.create 1024 in
  let field k emit =
    Buffer.add_string b ",\n  ";
    Run.Json.add_key b k;
    emit ()
  in
  Buffer.add_string b "{\n  ";
  Run.Json.add_key b "benchmark";
  Run.Json.add_str b benchmark;
  field "profile" (fun () -> Run.Json.add_str b Build_info.profile);
  field "flambda" (fun () -> Run.Json.add_bool b Build_info.flambda);
  let gc = Gc.quick_stat () in
  field "gc_minor_words" (fun () -> Run.Json.add_num b gc.Gc.minor_words);
  field "gc_promoted_words" (fun () ->
      Run.Json.add_num b gc.Gc.promoted_words);
  List.iter
    (fun (k, v) ->
      field k (fun () ->
          match v with
          | Num x -> Run.Json.add_num b x
          | Str s -> Run.Json.add_str b s))
    entries;
  Buffer.add_string b "\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

(** Minimal reader for the flat [{"key": number, ...}] files this
    program writes: one pair per line, string values skipped. *)
let baseline_numbers path : (string * float) list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if String.length line = 0 || line.[0] <> '"' then go acc
        else
          match String.index_from_opt line 1 '"' with
          | None -> go acc
          | Some j -> (
              let key = String.sub line 1 (j - 1) in
              match String.index_from_opt line j ':' with
              | None -> go acc
              | Some k ->
                  let v =
                    String.trim
                      (String.sub line (k + 1) (String.length line - k - 1))
                  in
                  let v =
                    if String.length v > 0 && v.[String.length v - 1] = ',' then
                      String.sub v 0 (String.length v - 1)
                    else v
                  in
                  (match float_of_string_opt v with
                  | Some f -> go ((key, f) :: acc)
                  | None -> go acc)))
  in
  go []

(** The --baseline verdict over the host throughput keys ([*_per_sec])
    only: simulated times, argmins and hit counts are deterministic
    model outputs that legitimately move when the model does, and
    allocation counts and wall-clock grid times are informational.
    Print any >= 5% regressions and exit 3 — unless the rotated trials
    disagreed among themselves by more than {!drift_threshold}, in
    which case the host's own noise dwarfs the gate and the regressions
    are downgraded to an advisory warning. *)
let gate (file, base) entries =
  let regressions =
    List.filter_map
      (function
        | key, Num now when Filename.check_suffix key "_per_sec" -> (
            match List.assoc_opt key base with
            | Some was when now < was *. 0.95 -> Some (key, was, now)
            | _ -> None)
        | _ -> None)
      entries
  in
  match regressions with
  | [] -> Printf.printf "No throughput regressions >= 5%% against %s\n" file
  | rs ->
      List.iter
        (fun (key, was, now) ->
          Printf.printf "REGRESSION %s: %.0f -> %.0f /sec (%.1f%%)\n" key was
            now
            (100. *. (1. -. (now /. was))))
        rs;
      if !max_drift >= drift_threshold then
        Printf.printf
          "DRIFT: trial spread %.0f%% >= %.0f%% — host too noisy for the 5%% \
           gate; the regressions above are advisory only\n"
          (100. *. !max_drift)
          (100. *. drift_threshold)
      else exit 3

(** One benchmark series: its mode flag (also naming its
    [BENCH_<flag>.json] artifact), what it measures, the measurement,
    which returns mode-specific text to print above the entries (empty
    for most) and the entries themselves, and the series' own verdict
    on its printed entries, which may exit. *)
type series = {
  flag : string;
  doc : string;
  title : string;
  benchmark : string;  (** the artifact's description *)
  measure : scale:[ `Bench | `Test ] -> string * (string * jval) list;
  verdict : (string * jval) list -> unit;
}

let show_num x =
  if Float.is_integer x || Float.abs x >= 1e4 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

(** The one emit step: print the entries, apply the series' verdict,
    write the artifact (full scale only — quick runs exist for smoke
    tests and gate checks; only a full-scale run is a measurement worth
    committing as the baseline artifact), then apply the --baseline
    gate. *)
let emit ~scale ~baseline s (text, entries) =
  let listing =
    List.map
      (fun (k, v) ->
        Printf.sprintf "  %-40s %s" k
          (match v with Num x -> show_num x | Str s -> s))
      entries
  in
  section s.title
    (Printf.sprintf "Build profile: %s (flambda: %b)\n%s%s" Build_info.profile
       Build_info.flambda text
       (String.concat "\n" listing));
  s.verdict entries;
  if scale = `Bench then begin
    let file = Printf.sprintf "BENCH_%s.json" s.flag in
    write_bench_json file ~benchmark:s.benchmark entries;
    Printf.printf "\nWrote %s\n" file
  end;
  Option.iter (fun b -> gate b entries) baseline

(* --------------------------------------------------------------- *)
(* Kernel series: row-compiled vs per-point execution paths         *)
(* --------------------------------------------------------------- *)

(** Cells/second of one benchmark's kernel loops in the sequential
    executor ({!Runtime.Seqexec}) — no communication and no simulated
    clock, so the measurement isolates the array-statement execution
    path — on the row path (the default every executor runs) and the
    interpreted per-point path. Returns (cells per run, point, row). *)
let kernel_paths ~defines source =
  let prog = Run.Spec.(parse (default source |> with_defines defines)) in
  let cells = ref 0 in
  let trial row_path () =
    let r =
      repeat_for ~budget:0.25 (fun () ->
          cells := (Runtime.Seqexec.run ~row_path prog).Runtime.Seqexec.cells)
    in
    let cps = float_of_int (!cells * r.runs) /. r.total in
    (cps, cps)
  in
  let best = best_of_3 [| trial true; trial false |] in
  (float_of_int !cells, best.(1), best.(0))

(** The legacy keys of the first BENCH_kernel.json keep their names, with
    [row_path_cells_per_sec] tracking TOMCATV's row path. *)
let measure_kernel ~scale =
  let tomcatv_defines, swm_defines =
    match scale with
    | `Bench -> ([ ("n", 128.); ("iters", 10.) ], [ ("n", 64.); ("iters", 8.) ])
    | `Test -> ([ ("n", 64.); ("iters", 3.) ], [ ("n", 32.); ("iters", 2.) ])
  in
  let t_cells, t_point, t_row =
    kernel_paths ~defines:tomcatv_defines Programs.Tomcatv.source
  in
  let s_cells, s_point, s_row =
    kernel_paths ~defines:swm_defines Programs.Suite.swm.Programs.Bench_def.source
  in
  let domains = Sim.Pool.default_domains () in
  let _, grid_serial =
    wall (fun () -> Report.Experiment.grid ~scale:`Test ~domains:1 ())
  in
  let _, grid_parallel =
    wall (fun () -> Report.Experiment.grid ~scale:`Test ~domains ())
  in
  ( "",
    nums
      [ ("cells_per_run", t_cells);
        ("point_path_cells_per_sec", t_point);
        ("row_path_cells_per_sec", t_row);
        ("row_vs_point_speedup", t_row /. t_point);
        ("tomcatv_point_cells_per_sec", t_point);
        ("tomcatv_row_cells_per_sec", t_row);
        ("swm_cells_per_run", s_cells);
        ("swm_point_cells_per_sec", s_point);
        ("swm_row_cells_per_sec", s_row);
        ("grid_quick_serial_sec", grid_serial);
        ("grid_quick_parallel_sec", grid_parallel);
        ("grid_domains", float_of_int domains) ] )

(* --------------------------------------------------------------- *)
(* Comm series: wire-plan runtime throughput                        *)
(* --------------------------------------------------------------- *)

(** Transfer activations summed over processors: each transfer instance
    costs one receive-side and one send-side activation (DR+DN and
    SR+SV respectively), which is the denominator the zero-allocation
    claim is about. *)
let activations (st : Sim.Stats.t) =
  Array.fold_left
    (fun n (pp : Sim.Stats.per_proc) ->
      n + pp.Sim.Stats.xfers_recv + pp.Sim.Stats.xfers_sent)
    0 st.Sim.Stats.procs

(** The ping microbenchmark is the combine-heavy two-node synthetic:
    eight member arrays cross east as one cc-combined message per
    iteration, so every message carries eight pieces packed into one
    pooled staging buffer. It is compiled with combining but without
    redundancy removal, so the single-statement loop body legitimately
    re-transfers every iteration and the non-communication noise floor
    stays minimal (see {!Programs.Synthetic.combined_source}).

    Figure 6's methodology applies: the communicating program and its
    communication-free twin are timed in the same trial group, and the
    {e exposed} per-run cost — what the communication runtime alone
    adds — is the difference of their fastest runs. Raw wall time
    understates it because both programs spend most of their time in
    (identical) single-statement kernel execution and interpreter
    dispatch; the subtraction isolates the comm path. Exposures are
    clamped at 1ns — on a loaded machine the exposure can sink below
    the noise floor; read very small exposures with suspicion.

    The grid measurement is TOMCATV on a 4x4 mesh — a real stencil
    program under the full [pl] configuration — timed raw (whole
    program, no subtraction). The keys keep the [wire] infix of the
    artifacts written while a second runtime existed, so old baselines
    stay comparable. *)
let measure_comm ~scale =
  let iters = match scale with `Bench -> 5000 | `Test -> 2000 in
  let defines = Programs.Synthetic.combined_defines ~doubles:8 ~iters in
  let cc_only = { Opt.Config.baseline with Opt.Config.cc = true } in
  let two_node source =
    cell
      Run.Spec.(
        default source |> with_defines defines |> with_config cc_only
        |> with_mesh 1 2)
  in
  let ping = two_node Programs.Synthetic.combined_source in
  let busy = two_node Programs.Synthetic.combined_busy_source in
  let budget = match scale with `Bench -> 3.0 | `Test -> 0.3 in
  (* One unmeasured run of each program shape: the first run after a
     compile pays cold caches and page faults, which would otherwise
     land entirely on whichever series is measured first. *)
  ignore (engine_trial ~budget:0.0 ping);
  ignore (engine_trial ~budget:0.0 busy);
  let fastest c () =
    let reps, mw, r = engine_trial ~budget:(budget /. 6.) c in
    (1.0 /. reps.fastest, (reps.fastest, mw, r.Sim.Engine.stats))
  in
  let b = best_of_3 [| fastest ping; fastest busy |] in
  let ping_sec, ping_mw, st = b.(0) and busy_sec, busy_mw, _ = b.(1) in
  let exposed = Float.max 1e-9 (ping_sec -. busy_sec) in
  let ping_msgs = float_of_int (Sim.Stats.total_messages st) in
  let grid_defines =
    match scale with
    | `Bench -> [ ("n", 128.); ("iters", 10.) ]
    | `Test -> [ ("n", 32.); ("iters", 3.) ]
  in
  let grid =
    cell
      Run.Spec.(
        default Programs.Tomcatv.source |> with_defines grid_defines
        |> with_mesh 4 4)
  in
  let raw () =
    let reps, mw, r = engine_trial ~budget grid in
    let st = r.Sim.Engine.stats in
    let msgs = float_of_int (Sim.Stats.total_messages st) in
    let per_sec n = n *. float_of_int reps.runs /. reps.total in
    ( per_sec msgs,
      [ ("tomcatv_msgs_per_run", msgs);
        ("tomcatv_wire_msgs_per_sec", per_sec msgs);
        ( "tomcatv_wire_bytes_per_sec",
          per_sec (float_of_int (Sim.Stats.total_bytes st)) );
        ("tomcatv_minor_words_per_msg", mw /. msgs) ] )
  in
  ( "",
    nums
      ([ ("ping_msgs_per_run", ping_msgs);
         ("ping_wire_msgs_per_sec", ping_msgs /. exposed);
         ( "ping_wire_bytes_per_sec",
           float_of_int (Sim.Stats.total_bytes st) /. exposed );
         (* allocation is deterministic, so one run of each pairs exactly *)
         ( "ping_wire_minor_words_per_activation",
           (ping_mw -. busy_mw) /. float_of_int (activations st) ) ]
      @ (best_of_3 [| raw |]).(0)) )

(* --------------------------------------------------------------- *)
(* Collective series: opaque reductions vs synthesized schedules     *)
(* --------------------------------------------------------------- *)

let coll_meshes = [ (1, 2); (2, 2); (3, 3); (4, 4) ]

let coll_modes =
  ("opaque", Opt.Config.Opaque)
  :: List.map
       (fun a -> (Ir.Coll.alg_name a, Opt.Config.Forced a))
       Ir.Coll.all_algs

(** Each mesh x {opaque + four algorithms}: host throughput in
    whole-machine reductions/sec (a reduction counts once however many
    processors participate), the deterministic simulated microseconds
    per reduction, and the run-phase minor words per reduction. The
    synthesized schedules' mailbox setup is part of their cost, so
    engine construction is timed with the run. *)
let measure_coll ~scale =
  let iters = match scale with `Bench -> 400 | `Test -> 60 in
  let budget = match scale with `Bench -> 0.4 | `Test -> 0.08 in
  let defines = Programs.Synthetic.reduce_defines ~n:16 ~iters in
  let reduces = float_of_int (Programs.Synthetic.reduce_count ~iters) in
  let mesh (pr, pc) =
    let trial (name, collective) =
      let c =
        cell
          Run.Spec.(
            default Programs.Synthetic.reduce_source |> with_defines defines
            |> with_collective collective |> with_mesh pr pc)
      in
      let key = Printf.sprintf "m%dx%d_%s_%s" pr pc name in
      fun () ->
        let reps, mw, r = engine_trial ~budget c in
        let per_sec = reduces *. float_of_int reps.runs /. reps.total in
        ( per_sec,
          [ (key "per_sec", per_sec);
            (key "sim_us", r.Sim.Engine.time /. reduces *. 1e6);
            (key "minor_words_per_reduce", mw /. reduces) ] )
    in
    List.concat (Array.to_list (best_of_3 (Array.of_list (List.map trial coll_modes))))
  in
  ( "Synthetic: 3 reductions (+, max, min) per iteration over a 16x16 grid, \
     T3D/PVM.\n",
    nums (List.concat_map mesh coll_meshes) )

(* --------------------------------------------------------------- *)
(* Sweep series: plan-cache throughput, cold vs warm pass            *)
(* --------------------------------------------------------------- *)

(** The sweep grid: benchmark x experiment row x collective mode, at
    test problem sizes clamped to a single iteration — compilation
    (parse, optimize, flatten, plan) dominates each task, which is
    exactly the work the content-addressed plan cache deduplicates. *)
let sweep_items ~scale () =
  let benches =
    match scale with
    | `Bench -> Programs.Suite.paper_benchmarks
    | `Test -> [ List.hd Programs.Suite.paper_benchmarks ]
  in
  let collectives =
    [ ("opaque", Opt.Config.Opaque); ("auto", Opt.Config.Auto) ]
  in
  List.concat_map
    (fun (b : Programs.Bench_def.t) ->
      let defines =
        List.map
          (fun (k, v) ->
            if k = "iters" then (k, 1.0)
            else if k = "n" then (k, Float.min v 8.0)
            else (k, v))
          b.Programs.Bench_def.test_defines
      in
      List.concat_map
        (fun (label, config, lib) ->
          List.map
            (fun (cname, collective) ->
              let spec =
                let open Run.Spec in
                default b.Programs.Bench_def.source
                |> with_defines defines |> with_config config
                |> with_collective collective
                |> with_target Machine.T3d.machine lib
                |> with_mesh 2 2
              in
              { Run.Sweep.label =
                  Printf.sprintf "%s/%s/%s" b.Programs.Bench_def.name label
                    cname;
                spec })
            collectives)
        Report.Experiment.paper_rows)
    benches

(** Cold vs cached engine minting on the tomcatv 2x2 cell, in µs per
    mint. The cold series re-plans everything the cache would share
    (comm schedule, wire blits, collective roles, per-rank kernel
    programs): [plan] + [of_plans]. The cached series only binds fresh
    stores into one shared [plans] value — the work a [Run.Cache] hit
    performs. Allocation per cached mint is deterministic, so one
    counted batch suffices for the words number. *)
let measure_mint ~scale =
  let defines =
    match scale with
    | `Bench -> [ ("n", 64.); ("iters", 2.) ]
    | `Test -> [ ("n", 16.); ("iters", 1.) ]
  in
  let spec, flat =
    cell
      Run.Spec.(
        default Programs.Tomcatv.source |> with_defines defines
        |> with_mesh 2 2)
  in
  let plan () = Run.Spec.plan spec flat in
  let shared = plan () in
  let budget = match scale with `Bench -> 0.4 | `Test -> 0.08 in
  let per_mint f () =
    let r = repeat_for ~budget f in
    let us = r.total /. float_of_int r.runs *. 1e6 in
    (1e6 /. us, us)
  in
  let best =
    best_of_3
      [| per_mint (fun () -> ignore (Sim.Engine.of_plans (plan ())));
         per_mint (fun () -> ignore (Sim.Engine.of_plans shared)) |]
  in
  let batch = 64 in
  let w0 = Gc.minor_words () in
  for _ = 1 to batch do
    ignore (Sim.Engine.of_plans shared)
  done;
  let mw = (Gc.minor_words () -. w0) /. float_of_int batch in
  [ ("mint_cold_us", best.(0));
    ("mint_cached_us", best.(1));
    ("mint_cold_vs_cached_speedup", best.(0) /. best.(1));
    ("mint_cached_minor_words", mw) ]

let measure_sweep ~scale =
  let items = sweep_items ~scale () in
  let n = List.length items in
  let fn = float_of_int n in
  let sweep = Run.Sweep.create () in
  let cold = Run.Sweep.run sweep items in
  (* the warm pass streams the incremental per-spec artifact; the cold
     pass is the reference wall time. Quick runs exercise the streaming
     path into a scratch file so the committed full-scale artifact is
     never overwritten by a test-scale pass. *)
  let grid_path =
    if scale = `Bench then "BENCH_sweep_grid.json"
    else Filename.temp_file "sweep_grid" ".json"
  in
  let warm =
    let oc = open_out grid_path in
    Fun.protect
      ~finally:(fun () ->
        close_out oc;
        if scale <> `Bench then Sys.remove grid_path)
      (fun () -> Run.Sweep.run ~out:oc sweep items)
  in
  (* Steady-state allocation probe: a third pass answered entirely from
     the result memo, on one domain so [Gc.minor_words] observes every
     allocation of the loop (GC counters are per-domain). *)
  let w0 = Gc.minor_words () in
  let _probe = Run.Sweep.run ~domains:1 sweep items in
  let warm_mw_per_spec = (Gc.minor_words () -. w0) /. fn in
  let mint = measure_mint ~scale in
  ( (if scale = `Bench then
       "Wrote BENCH_sweep_grid.json (incremental per-spec artifact)\n"
     else ""),
    nums
      ([ ("sweep_specs", fn);
         ("cold_wall_sec", cold.Run.Sweep.wall);
         ("warm_wall_sec", warm.Run.Sweep.wall);
         ("cold_specs_per_sec", fn /. cold.Run.Sweep.wall);
         ("warm_specs_per_sec", fn /. warm.Run.Sweep.wall);
         ("warm_vs_cold_speedup", cold.Run.Sweep.wall /. warm.Run.Sweep.wall);
         ("cold_hits", float_of_int cold.Run.Sweep.hits);
         ("warm_hits", float_of_int warm.Run.Sweep.hits);
         ("warm_misses", float_of_int warm.Run.Sweep.misses);
         ("warm_memo_hits", float_of_int warm.Run.Sweep.memo_hits);
         ( "cache_evictions",
           float_of_int warm.Run.Sweep.counters.Run.Cache.evictions );
         ("warm_minor_words_per_spec", warm_mw_per_spec) ]
      @ mint) )

let sweep_verdict entries =
  let num key = match List.assoc key entries with Num x -> x | Str _ -> nan in
  if num "warm_misses" > 0.0 then begin
    Printf.printf
      "CACHE FAILURE: the warm pass re-compiled %.0f of %.0f specs — \
       identical specs must hit\n"
      (num "warm_misses") (num "sweep_specs");
    exit 4
  end;
  (* The cached-mint claim is a perf acceptance, not just a trend: in
     the release profile a cache hit must mint engines well clear of
     cold planning. Drift-aware like the --baseline gate — if the
     rotated trials disagreed by more than the threshold, the host was
     too noisy for the ratio to convict. *)
  let mint_speedup = num "mint_cold_vs_cached_speedup" in
  if Build_info.profile = "release" && mint_speedup < 5.0 then begin
    if !max_drift >= drift_threshold then
      Printf.printf
        "DRIFT: trial spread %.0f%% >= %.0f%% — cached-mint speedup %.1fx \
         (< 5x target) is advisory only on this host\n"
        (100. *. !max_drift)
        (100. *. drift_threshold)
        mint_speedup
    else begin
      Printf.printf
        "MINT REGRESSION: cached mint only %.1fx faster than cold (target \
         >= 5x in release profile)\n"
        mint_speedup;
      exit 3
    end
  end

(* --------------------------------------------------------------- *)
(* Contention series: topology-aware network model                   *)
(* --------------------------------------------------------------- *)

let contention_configs =
  [ ("baseline", Opt.Config.baseline);
    ("rr", Opt.Config.rr_only);
    ("cc", Opt.Config.cc_cum);
    ("pl", Opt.Config.pl_cum) ]

(** The spec of one (config, topology) cell over [source]. *)
let contention_spec ?collective ~defines ~mesh:(pr, pc) source ~topology
    ~config =
  let open Run.Spec in
  default source |> with_defines defines |> with_config config
  |> with_mesh pr pc |> with_topology topology
  |> match collective with None -> Fun.id | Some c -> with_collective c

(** The pinned collective-pick scenario: a line of 9 processors on a
    wire-dominated T3D variant. 9 is not a power of two, so the
    dissemination schedule's wrap rounds (rank 8 -> 0 is 8 hops on a
    mesh line, 1 on a torus) and recursive doubling's fold phase price
    differently per topology — the argmin of the cost search moves
    when the wrap links appear. *)
let pick_nprocs = 9

let pick_mesh = (1, 9)

let pick_machine =
  { Machine.T3d.machine with Machine.Params.wire_latency = 40e-6 }

let measure_contention ~scale =
  let tom_defines =
    match scale with
    | `Bench -> [ ("n", 64.); ("iters", 5.) ]
    | `Test -> [ ("n", 24.); ("iters", 2.) ]
  in
  let con_defines =
    match scale with
    | `Bench -> Programs.Synthetic.contended_defines ~n:48 ~iters:6
    | `Test -> Programs.Synthetic.contended_defines ~n:16 ~iters:3
  in
  (* tomcatv keeps its opaque vendor reductions: pure stencil traffic
     under per-link occupancy. The contended synthetic forces the
     cost-searched collectives, whose multi-hop rounds share links with
     the stencil messages — the topology-sensitive case. *)
  let tomcatv_spec =
    contention_spec ~defines:tom_defines ~mesh:(4, 4) Programs.Tomcatv.source
  in
  let tables =
    [ ( "TOMCATV, 4x4 mesh, opaque reductions (simulated seconds per config):",
        "tomcatv", tomcatv_spec );
      ( "CONTENDED bisection synthetic, 1x8 line, cost-searched collectives:",
        "contended",
        contention_spec ~collective:Opt.Config.Auto ~mesh:(1, 8)
          ~defines:con_defines Programs.Synthetic.contended_source ) ]
  in
  let key prefix tn cfg = Printf.sprintf "%s_%s_%s_sim_sec" prefix tn cfg in
  (* every cell of both tables, answered by one sweep *)
  let swept =
    Run.Sweep.run (Run.Sweep.create ())
    @@ List.concat_map
      (fun (_, prefix, spec) ->
        List.concat_map
          (fun topology ->
            List.map
              (fun (cfg, config) ->
                { Run.Sweep.label =
                    key prefix (Machine.Topology.name topology) cfg;
                  spec = spec ~topology ~config })
              contention_configs)
          Machine.Topology.all)
      tables
  in
  let sim label =
    (List.find (fun (r : Run.Sweep.row) -> r.r_label = label) swept.rows)
      .r_time
  in
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.bprintf buf fmt in
  (* one table row and its entries per topology; the argmin is the
     fastest config's label, the first winning ties *)
  let table (title, prefix, _) =
    bpf "\n%s\n  %-8s %12s %12s %12s %12s   %s\n" title "topology" "baseline"
      "rr" "cc" "pl" "argmin";
    List.concat_map
      (fun topology ->
        let tn = Machine.Topology.name topology in
        let times =
          List.map
            (fun (cfg, _) -> (cfg, sim (key prefix tn cfg)))
            contention_configs
        in
        let argmin, _ =
          List.fold_left
            (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
            ("", infinity) times
        in
        bpf "  %-8s" tn;
        List.iter (fun (_, t) -> bpf " %12.6f" t) times;
        bpf "   %s\n" argmin;
        List.map
          (fun (cfg, t) -> (key prefix tn cfg, Num t))
          times
        @ [ (Printf.sprintf "%s_%s_argmin" prefix tn, Str argmin) ])
      Machine.Topology.all
  in
  let cells = List.concat_map table tables in
  bpf "\nPinned collective pick (line of %d, wire latency %.0f us):\n"
    pick_nprocs
    (pick_machine.Machine.Params.wire_latency *. 1e6);
  let picks =
    List.map
      (fun topology ->
        let tn = Machine.Topology.name topology in
        let alg =
          Ir.Coll.alg_name
            (Opt.Collective.choose ~topology ~mesh:pick_mesh
               ~machine:pick_machine ~lib:Machine.T3d.pvm pick_nprocs)
        in
        bpf "  %-8s -> %s\n" tn alg;
        (Printf.sprintf "pick_line9_%s" tn, Str alg))
      Machine.Topology.all
  in
  (* Host throughput of one whole compile+simulate tomcatv cell per
     topology — the gateable measurement. Each repetition runs on a
     fresh cache, so every one compiles. *)
  let budget = match scale with `Bench -> 0.6 | `Test -> 0.1 in
  let topos = Array.of_list Machine.Topology.all in
  let throughput =
    best_of_3
      (Array.map
         (fun topology () ->
           let r =
             repeat_for ~budget (fun () ->
                 ignore
                   (Run.Cache.run (Run.Cache.create ())
                      (tomcatv_spec ~topology ~config:Opt.Config.pl_cum)))
           in
           let rps = float_of_int r.runs /. r.total in
           (rps, rps))
         topos)
  in
  bpf "\n";
  ( Buffer.contents buf,
    cells @ picks
    @ Array.to_list
        (Array.mapi
           (fun i t ->
             ( Printf.sprintf "tomcatv_%s_runs_per_sec" (Machine.Topology.name t),
               Num throughput.(i) ))
           topos) )

(* --------------------------------------------------------------- *)
(* The registry and the command line                                 *)
(* --------------------------------------------------------------- *)

let kernel_series =
  { flag = "kernel";
    doc = "row-path vs per-point kernel throughput";
    title = "Kernel benchmark: per-point vs row-compiled";
    benchmark = "kernel loops in the sequential executor: per-point vs row";
    measure = measure_kernel;
    verdict = ignore }

let registry =
  [ kernel_series;
    { flag = "comm";
      doc = "wire-plan communication runtime throughput";
      title = "Communication benchmark: wire-plan runtime";
      benchmark =
        "wire-plan communication runtime (T3D pvm): 2-node ping micro + \
         tomcatv 4x4 grid";
      measure = measure_comm;
      verdict = ignore };
    { flag = "collective";
      doc = "opaque vendor reductions vs synthesized collective schedules";
      title =
        "Collective benchmark: opaque reductions vs synthesized DR/SR/DN/SV \
         schedules";
      benchmark =
        "opaque vendor reduction vs synthesized collective schedules (T3D \
         pvm), whole-machine reductions/sec and simulated us per reduction";
      measure = measure_coll;
      verdict = ignore };
    { flag = "sweep";
      doc = "content-addressed plan cache: cold vs warm pass over a spec grid";
      title = "Sweep benchmark: content-addressed plan cache, cold vs warm pass";
      benchmark =
        "content-addressed plan cache: cold vs warm sweep over a benchmark x \
         row x collective spec grid (test scale, 1 iteration, 2x2 mesh)";
      measure = measure_sweep;
      verdict = sweep_verdict };
    { flag = "contention";
      doc =
        "topology-aware network contention: per-link occupancy on mesh/torus \
         vs the ideal crossbar";
      title =
        "Contention benchmark: per-link occupancy on mesh/torus vs the ideal \
         crossbar";
      benchmark =
        "topology-aware network contention (T3D pvm): per-config simulated \
         times and argmin per topology, pinned collective picks, host \
         compile+simulate throughput";
      measure = measure_contention;
      verdict = ignore } ]

(* Flag parsing is shared with zplc through {!Cli.Cmdline} (--quick,
   --baseline); only the mode selector is bench-specific. *)
let main =
  let open Cmdliner in
  let mode_arg =
    Arg.(
      value
      & vflag None
          (List.map
             (fun s ->
               ( Some s,
                 info [ s.flag ]
                   ~doc:(Printf.sprintf "%s; writes BENCH_%s.json" s.doc s.flag)
               ))
             registry))
  in
  let run mode quick baseline =
    let scale = Cli.Cmdline.scale_of_quick quick in
    (* read once, before the first trial *)
    let baseline = Option.map (fun f -> (f, baseline_numbers f)) baseline in
    let bench s = emit ~scale ~baseline s (s.measure ~scale) in
    match mode with
    | Some s -> bench s
    | None ->
        print_report ~scale ();
        if scale = `Test then bench kernel_series
  in
  Cmd.v
    (Cmd.info "bench" ~version:"1.0.0"
       ~doc:
         "paper-reproduction harness: the full report by default, or one \
          focused benchmark per mode flag")
    Term.(
      const run $ mode_arg $ Cli.Cmdline.quick_arg $ Cli.Cmdline.baseline_arg)

let () = exit (Cmdliner.Cmd.eval main)
