(** The layered benchmark: one workload per process, timed end to end
    with tracing off, then (with [--trace 1]) one traced repetition
    split by layer.

    {v
    dune exec --profile release bench/suite/main.exe -- \
      --workload report|sweep|verify --seed N --seconds N --trace 0|1 \
      [--chrome FILE]
    dune exec bench/suite/main.exe -- --quick [--workload W]
    dune exec bench/suite/main.exe -- compare A1.out A2.out .. -- B1.out ..
    v}

    A run prints one metric per line (name, value, unit) and, as its
    last line, a JSON object with the keys [correct], [attempted],
    [failed] and [metrics]. See README.md for what each metric means. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workload registry                                                   *)
(* ------------------------------------------------------------------ *)

(** A workload with its input and output types hidden: [prepare ~seed
    scale] makes the inputs and returns a pass, which yields the traced
    twin of itself when it produced outputs. *)
type workload = {
  name : string;
  prepare :
    seed:int ->
    Work.scale ->
    unit ->
    Work.pass * (Work.counts -> Span.t * bool) option;
}

let make name inputs pass traced =
  { name;
    prepare =
      (fun ~seed scale ->
        let inp = inputs ~seed scale in
        fun () ->
          let p, out = pass inp in
          (p, Option.map (fun o counts -> traced inp o counts) out)) }

let workloads =
  [ make "report" Work.Report_w.inputs Work.Report_w.pass Work.Report_w.traced;
    make "sweep" Work.Sweep_w.inputs Work.Sweep_w.pass Work.Sweep_w.traced;
    make "verify" Work.Verify_w.inputs Work.Verify_w.pass Work.Verify_w.traced ]

(** MD5 of each workload's outputs, independent of the seed. A change
    that alters any simulated time, count or rendered byte fails it. *)
let pinned name (scale : Work.scale) =
  match (name, scale) with
  | "report", `Bench -> "7b049c210357979a217d4e139774c9c5"
  | "report", `Test -> "05c894a822330d852b92dde744cdf296"
  | "sweep", `Bench -> "31d59d6acbdf0a65993ee8224c6e43f7"
  | "sweep", `Test -> "f0ae202c911cbecaf8130774dfc0c7b2"
  | "verify", `Bench -> "22b5aad4fdbeec12c1e8a5040e065574"
  | "verify", `Test -> "d6e60e3a72830ca63e54015315b499eb"
  | _ -> invalid_arg name

let checked w scale (p : Work.pass) =
  p.Work.tally.failed = 0 && p.Work.ok && String.equal p.Work.digest (pinned w.name scale)

let median = Compare.median

(* Peak resident set of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(** Layers every workload calls; each gets a self time in seconds. *)
let common_layers =
  [ "zpl.check"; "opt.passes"; "ir.flatten"; "engine.plan"; "engine.mint";
    "engine.run"; "residual" ]

(** Layers only some workloads call. They report a share and minor
    words but no seconds, so no time metric reads a constant zero. *)
let other_layers =
  [ "analysis.schedcheck"; "seqexec.run"; "engine.gather"; "run.cache";
    "run.sweep"; "report.ping"; "report.figures" ]

(** Workload-specific numbers from the untraced passes ([Work.pass]
    extras), zero where a workload has none. *)
let extra_metrics =
  [ ("run.cache.hits", "count"); ("run.cache.misses", "count");
    ("run.cache.evictions", "count"); ("run.cache.hit_ratio", "frac");
    ("run.sweep.memo_ratio", "frac"); ("run.sweep.pool_reuse_ratio", "frac");
    ("run.sweep.cold_specs_per_s", "1/s"); ("run.sweep.rerun_specs_per_s", "1/s");
    ("run.sweep.memo_specs_per_s", "1/s") ]

let layer_metrics (s : Span.summary) (c : Work.counts) ~extras ~untraced :
    (string * float * string) list =
  let self name =
    if name = "residual" then s.residual
    else
      match List.find_opt (fun (l, _, _) -> l = name) s.self with
      | Some (_, sec, words) -> (sec, words)
      | None -> (0.0, 0.0)
  in
  let per_layer ~seconds name =
    let sec, words = self name in
    (if seconds then [ (name ^ ".s", sec, "s") ] else [])
    @ [ (name ^ ".share", sec /. s.busy, "frac"); (name ^ ".minor_words", words, "words") ]
  in
  let run_s = fst (self "engine.run") in
  let ops = s.op_times in
  let nops = Array.length ops in
  List.concat_map (per_layer ~seconds:true) common_layers
  @ List.concat_map (per_layer ~seconds:false) other_layers
  @ [ ("engine.cells", c.cells, "count"); ("engine.msgs", c.msgs, "count");
      ("engine.bytes", c.bytes, "count"); ("engine.instructions", c.instructions, "count");
      ("engine.sim_compute_s", c.sim_compute, "sim_s");
      ("engine.sim_comm_cpu_s", c.sim_comm, "sim_s");
      ("engine.sim_wait_s", c.sim_wait, "sim_s");
      ("engine.cells_per_s", c.cells /. run_s, "1/s");
      ("engine.msgs_per_s", c.msgs /. run_s, "1/s") ]
  @ List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0.0 (List.assoc_opt name extras), unit))
      extra_metrics
  @ [ ("op.count", float_of_int nops, "count");
      ("op.p50_ms", 1e3 *. median (Array.to_list ops), "ms");
      ("op.max_ms", (if nops = 0 then nan else 1e3 *. ops.(nops - 1)), "ms");
      ("trace.wall_s", s.wall, "s"); ("trace.busy_s", s.busy, "s");
      ("trace.overhead_frac", (s.wall /. untraced) -. 1.0, "frac") ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-34s %.6g %s\n" name v unit) metrics;
  let b = Buffer.create 4096 in
  Buffer.add_char b '{';
  Run.Json.add_key b "correct";
  Run.Json.add_bool b correct;
  Buffer.add_string b ", ";
  Run.Json.add_key b "attempted";
  Run.Json.add_int b attempted;
  Buffer.add_string b ", ";
  Run.Json.add_key b "failed";
  Run.Json.add_int b failed;
  Buffer.add_string b ", ";
  Run.Json.add_key b "metrics";
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      Run.Json.add_key b name;
      Buffer.add_char b '{';
      Run.Json.add_key b "value";
      (* JSON has no NaN: an undefined ratio (no samples) reads as 0 *)
      Run.Json.add_exact b (if Float.is_finite v then v else 0.0);
      Buffer.add_string b ", ";
      Run.Json.add_key b "unit";
      Run.Json.add_str b unit;
      Buffer.add_char b '}')
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Host calibration                                                    *)
(* ------------------------------------------------------------------ *)

(* The host's speed drifts by 10-40% over minutes (other tenants share
   the machine), more than the run-to-run noise of a pass. Every
   end-to-end time is therefore divided by the median time of a
   calibration loop timed around each pass, and reported in seconds of
   a nominal host on which the loop takes [nominal_ref_s]. The loop is
   harness code, so no library change moves it, and it allocates
   nothing, so no heap a library change leaves behind slows it. *)

let nominal_ref_s = 0.15
let ref_cells = lazy (Array.make (1 lsl 22) 1.0)

(** One calibration: stencil sweeps (streaming) and random reads
    (cache misses) over a 32 MB float array; its wall seconds. *)
let reference () =
  let a = Lazy.force ref_cells in
  let n = Array.length a in
  let t0 = now () in
  for _ = 1 to 6 do
    for i = 1 to n - 2 do
      Array.unsafe_set a i
        ((0.25 *. (Array.unsafe_get a (i - 1) +. Array.unsafe_get a (i + 1)))
        +. (0.5 *. Array.unsafe_get a i))
    done
  done;
  let x = ref 12345 and acc = ref 0.0 in
  for _ = 1 to 3_000_000 do
    x := ((!x * 1103515245) + 12345) land (n - 1);
    acc := !acc +. Array.unsafe_get a !x
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let setups = 3
let min_reps = 3

(** The set-up, everything before the first timed pass: make the inputs
    from the seed, run and check the test-scale pass, then run and check
    one untimed bench-scale pass, which grows the heap and fills lazy
    state to their steady size. The bench-scale pass, and whether both
    checks held. *)
let set_up w ~seed =
  let test, _ = w.prepare ~seed `Test () in
  let pass = w.prepare ~seed `Bench in
  let warm, _ = pass () in
  (pass, checked w `Test test && checked w `Bench warm)

(** Child mode: one set-up in a fresh process, whose wall time from
    spawn to exit is one [setup_s] sample. *)
let setup_only w ~seed = if snd (set_up w ~seed) then 0 else 1

let time_setups w ~seed =
  List.init setups (fun _ ->
      let t0 = now () in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--setup-only"; "--workload"; w.name; "--seed";
             string_of_int seed |]
          Unix.stdin Unix.stderr Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      (now () -. t0, status = Unix.WEXITED 0))

(** Timed passes until [seconds] have elapsed and at least [min_reps]
    ran, with a calibration after each: the passes' wall seconds and
    results, and the calibration times. *)
let timed_passes pass ~seconds =
  let t_loop = now () in
  let rec loop reps refs =
    let elapsed = now () -. t_loop in
    let n = List.length reps in
    if n >= 1
       && elapsed >= float_of_int seconds
       && (n >= min_reps || elapsed >= 4.0 *. float_of_int seconds)
    then (List.rev reps, refs)
    else begin
      (* each pass starts from a collected heap, so garbage one pass
         left behind is not collected on the next pass's clock *)
      Gc.full_major ();
      let t0 = now () in
      let r = pass () in
      let wall = now () -. t0 in
      loop ((wall, r) :: reps) (reference () :: refs)
    end
  in
  loop [] []

let run_workload w ~seed ~seconds ~trace ~chrome =
  Printf.printf "# workload %s seed %d seconds %d trace %d profile %s\n%!" w.name seed
    seconds (if trace then 1 else 0) Build_info.profile;
  let ref0 = reference () in
  let setup = time_setups w ~seed in
  let ref1 = reference () in
  let pass, set_up_ok = set_up w ~seed in
  let reps, refs = timed_passes pass ~seconds in
  let rss = peak_rss_mb () in
  let passes = List.map (fun (_, (p, _)) -> p) reps in
  let wall_s = median (List.map fst reps)
  and ref_s = median (ref0 :: ref1 :: refs)
  and setup_wall = median (List.map fst setup) in
  let attempted = List.fold_left (fun a p -> a + p.Work.tally.attempted) 0 passes
  and failed = List.fold_left (fun a p -> a + p.Work.tally.failed) 0 passes in
  let correct =
    set_up_ok && List.for_all snd setup && List.for_all (checked w `Bench) passes
  in
  Printf.printf
    "# %d timed passes, digest %s\n\
     # wall medians: set-up %.4f s, pass %.4f s, calibration loop %.4f s\n"
    (List.length reps) (List.hd passes).Work.digest setup_wall wall_s ref_s;
  let correct, metrics =
    if not trace then
      ( correct,
        [ ("setup_s", setup_wall *. nominal_ref_s /. ref_s, "s");
          ("pass_s", wall_s *. nominal_ref_s /. ref_s, "s") ] )
    else
      let _, (_, twin) = List.hd (List.rev reps) in
      let counts = Work.counts () in
      match Option.map (fun twin -> twin counts) twin with
      | None -> (false, [])
      | exception e ->
          prerr_endline ("traced pass failed: " ^ Printexc.to_string e);
          (false, [])
      | Some (tr, same) ->
          Option.iter
            (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc (Span.chrome tr)))
            chrome;
          let extras =
            List.concat_map (fun p -> p.Work.extra) passes
            |> List.map fst |> List.sort_uniq compare
            |> List.map (fun k ->
                   ( k,
                     median
                       (List.filter_map (fun p -> List.assoc_opt k p.Work.extra) passes) ))
          in
          ( correct && same,
            layer_metrics (Span.summarize tr) counts ~extras ~untraced:wall_s
            @ [ ("host.pass_wall_s", wall_s, "s"); ("host.calibration_s", ref_s, "s");
                ("mem.peak_rss_mb", rss, "MB") ] )
  in
  print_result ~correct ~attempted ~failed metrics;
  if correct then 0 else 1

(** Smoke mode: every (or the given) workload at test scale, one
    untraced and one traced pass, every output check applied. *)
let quick ws =
  List.fold_left
    (fun code w ->
      let p, twin = w.prepare ~seed:1 `Test () in
      let same =
        match twin with Some twin -> snd (twin (Work.counts ())) | None -> false
      in
      let ok = checked w `Test p && same in
      Printf.printf "quick %-6s %s: %d operations, %d failed, digest %s%s, traced twin %s\n"
        w.name (if ok then "ok" else "FAILED") p.Work.tally.attempted p.Work.tally.failed
        p.Work.digest
        (if String.equal p.Work.digest (pinned w.name `Test) then "" else " (not pinned)")
        (if same then "equal" else "DIFFERS");
      if ok then code else 1)
    0 ws

let usage () =
  prerr_endline
    "usage: main.exe --workload report|sweep|verify [--seed N] [--seconds N] \
     [--trace 0|1] [--chrome FILE]\n\
    \       main.exe --quick [--workload W]\n\
    \       main.exe compare A.out.. -- B.out..";
  2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | "compare" :: rest -> Compare.main rest
    | _ -> (
        let workload = ref None and seed = ref 1 and seconds = ref 10 in
        let trace = ref false and chrome = ref None in
        let quick_mode = ref false and setup_mode = ref false in
        let rec parse = function
          | [] -> true
          | "--workload" :: w :: rest ->
              workload := Some w;
              parse rest
          | "--seed" :: n :: rest when int_of_string_opt n <> None ->
              seed := int_of_string n;
              parse rest
          | "--seconds" :: n :: rest when int_of_string_opt n <> None ->
              seconds := int_of_string n;
              parse rest
          | "--trace" :: (("0" | "1") as t) :: rest ->
              trace := t = "1";
              parse rest
          | "--chrome" :: f :: rest ->
              chrome := Some f;
              parse rest
          | "--quick" :: rest ->
              quick_mode := true;
              parse rest
          | "--setup-only" :: rest ->
              setup_mode := true;
              parse rest
          | _ -> false
        in
        let find name = List.find_opt (fun w -> w.name = name) workloads in
        if not (parse args) then usage ()
        else
          match (!quick_mode, !setup_mode, Option.map find !workload) with
          | true, _, None -> quick workloads
          | true, _, Some (Some w) -> quick [ w ]
          | false, true, Some (Some w) -> setup_only w ~seed:!seed
          | false, false, Some (Some w) ->
              run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace ~chrome:!chrome
          | _ -> usage ())
  in
  exit code
