(** Properties of the unified [Run] API: content-addressed plan cache
    ([Run.Cache]), spec canonicalization ([Run.Spec.key]), and the batch
    sweep service ([Run.Sweep]). These are the acceptance properties of
    the Spec redesign: equal specs share compiled plans physically and
    never recompile; flipping any single key-relevant field misses; a
    cached engine's results are bit-identical to a cold compile's. *)

open Commopt

let src =
  {|
constant n = 8;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction e = [0, 1]; direction w = [0, -1];
direction no = [-1, 0]; direction s = [1, 0];
var A, B : [BigR] float;
var err : float;
var t : int;
procedure main();
begin
  [BigR] A := Index1 + 10.0 * Index2;
  for t := 1 to 3 do
    [R] B := 0.25 * (A@e + A@w + A@no + A@s);
    [R] err := max<< abs(B - A);
    [R] A := B;
  end;
end;
|}

let base () = Run.Spec.(default src |> with_mesh 2 2)
let bits = Int64.bits_of_float

(* The cold side of the cached == cold tests: a fresh compile and plan
   run directly on the engine, bypassing every cache. *)
let cold_run spec = Sim.Engine.run (Run.Spec.engine_of (Run.Spec.build spec))

(* ------------------------------------------------------------------ *)
(* Cache hits share plans physically                                   *)
(* ------------------------------------------------------------------ *)

let test_hit_physical_equality () =
  let cache = Run.Cache.create () in
  let spec = base () in
  let a1, h1 = Run.Cache.find cache spec in
  let a2, h2 = Run.Cache.find cache (base ()) in
  Alcotest.(check bool) "first lookup compiles" false h1;
  Alcotest.(check bool) "second lookup hits" true h2;
  Alcotest.(check bool) "identical artifact, not a recompile" true (a1 == a2);
  let e1 = Run.Spec.engine_of a1 and e2 = Run.Spec.engine_of a2 in
  Alcotest.(check bool) "engines share plans physically" true
    (Sim.Engine.shared_plans e1 == Sim.Engine.shared_plans e2);
  Alcotest.(check bool) "engines have private mutable state" true (e1 != e2);
  let c = Run.Cache.counters cache in
  Alcotest.(check int) "one miss" 1 c.Run.Cache.misses;
  Alcotest.(check int) "one hit" 1 c.Run.Cache.hits;
  Alcotest.(check int) "no evictions" 0 c.Run.Cache.evictions

(* ------------------------------------------------------------------ *)
(* Any single key-relevant field flip misses                           *)
(* ------------------------------------------------------------------ *)

let flips : (string * (Run.Spec.t -> Run.Spec.t)) list =
  [ ("source", fun s -> { s with Run.Spec.source = src ^ "-- tail\n" });
    ("defines", Run.Spec.with_defines [ ("n", 9.0) ]);
    ("config", Run.Spec.with_config Opt.Config.baseline);
    ("collective", Run.Spec.with_collective Opt.Config.Auto);
    ("heuristic", Run.Spec.with_config Opt.Config.pl_max_latency);
    ("machine", Run.Spec.with_machine Machine.Paragon.machine);
    ("lib", Run.Spec.with_lib Machine.T3d.shmem);
    ("mesh", Run.Spec.with_mesh 1 2);
    ("topology", Run.Spec.with_topology Machine.Topology.Mesh);
    ("check", Run.Spec.with_check true) ]

let test_single_flip_misses () =
  let b = base () in
  let k = Run.Spec.key b in
  List.iter
    (fun (name, flip) ->
      Alcotest.(check bool)
        (Printf.sprintf "flipping %s changes the key" name)
        false
        (String.equal k (Run.Spec.key (flip b))))
    flips;
  (* a flipped spec misses the cache that holds the base *)
  let cache = Run.Cache.create () in
  ignore (Run.Cache.find cache b);
  List.iter
    (fun (name, flip) ->
      if name = "source" || name = "defines" then ()
        (* same program family only: don't compile a 9x9 variant here *)
      else
        let _, hit = Run.Cache.find cache (flip b) in
        Alcotest.(check bool)
          (Printf.sprintf "%s variant misses" name)
          false hit)
    [ List.nth flips 2; List.nth flips 7; List.nth flips 9 ]

let test_limit_excluded () =
  let b = base () in
  Alcotest.(check string) "limit is not part of the key" (Run.Spec.key b)
    (Run.Spec.key (Run.Spec.with_limit 5 b))

let test_defines_canonical () =
  let d1 = [ ("iters", 3.0); ("n", 8.0) ]
  and d2 = [ ("n", 8.0); ("iters", 3.0) ] in
  let s1 = Run.Spec.with_defines d1 (base ())
  and s2 = Run.Spec.with_defines d2 (base ()) in
  Alcotest.(check bool) "define order does not matter" true
    (Run.Spec.equal s1 s2);
  Alcotest.(check string) "same program digest" (Run.Spec.program_digest s1)
    (Run.Spec.program_digest s2)

(* The key folds in the source's MD5, remembered per domain by physical
   identity: a copy of the text is a different string with the same
   content, so it must key the same, on this domain and on another; a
   one-byte edit and a one-ulp define change must not. *)
let test_source_digest_key () =
  let b = Run.Spec.with_defines [ ("n", 8.0) ] (base ()) in
  let copy = String.init (String.length src) (String.get src) in
  Alcotest.(check bool) "the copy is a distinct string" false (copy == src);
  let c = { b with Run.Spec.source = copy } in
  let keys (s : Run.Spec.t) = (Run.Spec.key s, Run.Spec.program_digest s) in
  let pair = Alcotest.(pair string string) in
  Alcotest.check pair "equal content, same key" (keys b) (keys c);
  Alcotest.check pair "same key on a second domain" (keys b)
    (Domain.join (Domain.spawn (fun () -> keys c)));
  let edited =
    String.mapi (fun i ch -> if i = String.length src / 2 then '#' else ch) src
  in
  Alcotest.(check bool) "a one-byte source edit changes the key" false
    (String.equal (Run.Spec.key b) (Run.Spec.key { b with Run.Spec.source = edited }));
  let ulp = Run.Spec.with_defines [ ("n", Float.succ 8.0) ] b in
  Alcotest.(check bool) "a last-ulp define change changes the key" false
    (String.equal (Run.Spec.key b) (Run.Spec.key ulp));
  Alcotest.(check bool) "and the program digest" false
    (String.equal (Run.Spec.program_digest b) (Run.Spec.program_digest ulp))

(* qcheck: flipping the [check] knob changes the key, while limit
   perturbations never affect it *)
let prop_key_iff_knobs =
  let gen =
    QCheck.make
      ~print:(fun (c, l) -> Printf.sprintf "check=%b limit=%d" c l)
      QCheck.Gen.(pair bool (int_range 1 1000))
  in
  QCheck.Test.make ~count:100 ~name:"key ignores limit, sees knobs" gen
    (fun (check, limit) ->
      let b = base () in
      let s = Run.Spec.(b |> with_check check |> with_limit limit) in
      Bool.equal (Run.Spec.equal b s) (not check))

(* ------------------------------------------------------------------ *)
(* Cached vs cold: bit-identical results across the six paper rows     *)
(* ------------------------------------------------------------------ *)

let test_cached_equals_cold_paper_rows () =
  let b = Programs.Suite.tomcatv in
  let cache = Run.Cache.create () in
  List.iter
    (fun (label, config, lib) ->
      let spec =
        Report.Experiment.bench_spec ~machine:Machine.T3d.machine ~lib
          ~config ~scale:`Test b
      in
      let cold = cold_run spec in
      let warm1 = Run.Cache.run cache spec in
      let warm2 = Run.Cache.run cache spec in
      List.iter
        (fun (what, r) ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: %s time bits" label what)
            (bits cold.Sim.Engine.time)
            (bits r.Sim.Engine.time);
          Alcotest.(check int)
            (Printf.sprintf "%s: %s dynamic count" label what)
            (Sim.Stats.dynamic_count cold.Sim.Engine.stats)
            (Sim.Stats.dynamic_count r.Sim.Engine.stats);
          Alcotest.(check int)
            (Printf.sprintf "%s: %s message count" label what)
            (Sim.Stats.total_messages cold.Sim.Engine.stats)
            (Sim.Stats.total_messages r.Sim.Engine.stats);
          Alcotest.(check int)
            (Printf.sprintf "%s: %s byte count" label what)
            (Sim.Stats.total_bytes cold.Sim.Engine.stats)
            (Sim.Stats.total_bytes r.Sim.Engine.stats))
        [ ("cache-miss run", warm1); ("cache-hit run", warm2) ])
    Report.Experiment.paper_rows;
  let c = Run.Cache.counters cache in
  Alcotest.(check int) "six rows -> six compiles"
    (List.length Report.Experiment.paper_rows)
    c.Run.Cache.misses;
  Alcotest.(check int) "six repeats -> six hits"
    (List.length Report.Experiment.paper_rows)
    c.Run.Cache.hits

(* ------------------------------------------------------------------ *)
(* Cached kernel artifact vs fresh compile: the full acceptance grid   *)
(* ------------------------------------------------------------------ *)

(* An engine minted from a cached artifact executes the kernel programs
   compiled at plan time (store binding only, no recompilation); a
   fresh compile builds everything from source. Bit-identical makespans
   and identical dynamic counters across every benchmark x paper row x
   interconnect prove the store-binding contract is complete on the
   whole acceptance surface, not just the tomcatv cell. Problem sizes
   are clamped the same way the sweep grid clamps them, so the grid
   stays test-suite cheap. *)
let test_cached_mint_grid () =
  let cache = Run.Cache.create () in
  let topos =
    [ Machine.Topology.Ideal; Machine.Topology.Mesh; Machine.Topology.Torus ]
  in
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      let defines =
        List.map
          (fun (k, v) ->
            if k = "iters" then (k, 1.0)
            else if k = "n" then (k, Float.min v 8.0)
            else (k, v))
          b.Programs.Bench_def.test_defines
      in
      List.iter
        (fun (label, config, lib) ->
          List.iter
            (fun topo ->
              let spec =
                let open Run.Spec in
                default b.Programs.Bench_def.source
                |> with_defines defines |> with_config config
                |> with_target Machine.T3d.machine lib
                |> with_mesh 2 2 |> with_topology topo
              in
              let name =
                Printf.sprintf "%s/%s/%s" b.Programs.Bench_def.name label
                  (Machine.Topology.name topo)
              in
              let cold = cold_run spec in
              let _, hit = Run.Cache.find cache spec in
              Alcotest.(check bool) (name ^ ": first lookup compiles") false
                hit;
              (* minted from the cached artifact: store binding only *)
              let cached = Run.Cache.run cache spec in
              Alcotest.(check int64)
                (name ^ ": makespan bits")
                (bits cold.Sim.Engine.time)
                (bits cached.Sim.Engine.time);
              Alcotest.(check int)
                (name ^ ": dynamic count")
                (Sim.Stats.dynamic_count cold.Sim.Engine.stats)
                (Sim.Stats.dynamic_count cached.Sim.Engine.stats);
              Alcotest.(check int)
                (name ^ ": byte count")
                (Sim.Stats.total_bytes cold.Sim.Engine.stats)
                (Sim.Stats.total_bytes cached.Sim.Engine.stats))
            topos)
        Report.Experiment.paper_rows)
    Programs.Suite.paper_benchmarks

(* ------------------------------------------------------------------ *)
(* Plans over a shared geometry == fresh plans                         *)
(* ------------------------------------------------------------------ *)

(** Everything a run determines, rendered exactly: makespan bits, every
    processor's [Stats], the per-op completion counts and the staging
    pool counts. *)
let fingerprint (r : Sim.Engine.result) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "t=%h instr=%d\n" r.Sim.Engine.time
    r.Sim.Engine.stats.Sim.Stats.instructions;
  Array.iter
    (fun (p : Sim.Stats.per_proc) ->
      let tm = p.Sim.Stats.times in
      Printf.bprintf b "%d %d %d %d %d %d %d %d %h %h %h %h\n"
        p.Sim.Stats.xfers_recv p.xfers_sent p.msgs_sent p.msgs_recv
        p.bytes_sent p.bytes_recv p.reduces p.cells tm.Sim.Stats.compute
        tm.comm_cpu tm.wait tm.finish)
    r.Sim.Engine.stats.Sim.Stats.procs;
  let eng = r.Sim.Engine.engine in
  Array.iter (Printf.bprintf b "%d,") (Sim.Engine.op_counts eng);
  let fresh, reused = Sim.Engine.pool_counts eng in
  Printf.bprintf b "\npool %d %d\n" fresh reused;
  Buffer.contents b

(* Every spec of one (program, mesh) plans over the cache's one
   geometry, so each fringe transfer's blueprints are built by the
   first spec that needs them and reused by the rest — across rows,
   libraries and topologies. A fresh plan builds its own; both must
   run identically. *)
let test_shared_geometry_grid () =
  let cache = Run.Cache.create () in
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      List.iter
        (fun (pr, pc) ->
          List.iter
            (fun (label, config, lib) ->
              List.iter
                (fun topo ->
                  let spec =
                    let open Run.Spec in
                    default b.Programs.Bench_def.source
                    |> with_defines b.Programs.Bench_def.test_defines
                    |> with_config config
                    |> with_target Machine.T3d.machine lib
                    |> with_mesh pr pc |> with_topology topo
                  in
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s/%s/%dx%d" b.Programs.Bench_def.name
                       label (Machine.Topology.name topo) pr pc)
                    (fingerprint (cold_run spec))
                    (fingerprint (Run.Cache.run cache spec)))
                Machine.Topology.all)
            Report.Experiment.paper_rows)
        [ (2, 2); (3, 3) ])
    (Programs.Suite.paper_benchmarks @ [ Programs.Suite.jacobi ])

(* Two specs of one program and mesh, planned through one cache, hold
   the same fringe blueprint arrays, not equal copies: the second spec
   (another library and topology) builds no blueprint set. *)
let test_geometry_shares_blueprints () =
  let cache = Run.Cache.create () in
  let s1 = base () in
  let s2 =
    Run.Spec.(
      base ()
      |> with_target Machine.T3d.machine Machine.T3d.shmem
      |> with_topology Machine.Topology.Torus)
  in
  let a1 = Run.Cache.artifact cache s1 in
  let g = Sim.Engine.plan_geometry a1.Run.Spec.a_plans in
  let built = Sim.Engine.blueprint_sets g in
  let a2 = Run.Cache.artifact cache s2 in
  Alcotest.(check bool) "one geometry" true
    (Sim.Engine.plan_geometry a2.Run.Spec.a_plans == g);
  Alcotest.(check int) "second spec builds no blueprint set" built
    (Sim.Engine.blueprint_sets g);
  let xs = a1.Run.Spec.a_flat.Ir.Flat.transfers in
  Alcotest.(check bool) "the program has fringe transfers" true
    (Array.length xs > 0);
  Array.iteri
    (fun i (x : Ir.Transfer.t) ->
      let j =
        match
          List.find_opt
            (fun (y : Ir.Transfer.t) ->
              y.Ir.Transfer.arrays = x.Ir.Transfer.arrays
              && y.Ir.Transfer.off = x.Ir.Transfer.off)
            (Array.to_list a2.Run.Spec.a_flat.Ir.Flat.transfers)
        with
        | Some y -> y.Ir.Transfer.id
        | None -> Alcotest.fail "transfer missing from the second spec"
      in
      Alcotest.(check bool)
        (Printf.sprintf "x%d blueprints shared physically" i)
        true
        (Sim.Engine.sides a1.Run.Spec.a_plans i
        == Sim.Engine.sides a2.Run.Spec.a_plans j))
    xs;
  (* a fresh plan of the same flat program builds its own *)
  let fresh = Run.Spec.build s1 in
  Alcotest.(check bool) "a fresh build has its own geometry" true
    (Sim.Engine.plan_geometry fresh.Run.Spec.a_plans != g)

(* A program's geometries live in its cache entry: with room for one
   program, alternating two on one mesh evicts and re-parses each, and
   the re-parsed program is planned over a geometry of its own (the
   evicted entry's was built over the old parse), running bit for bit
   like a fresh build. *)
let test_evicted_program_new_geometry () =
  let cache = Run.Cache.create ~capacity:1 () in
  let s1 = base () in
  let s2 = Run.Spec.(default (src ^ "\n") |> with_mesh 2 2) in
  Alcotest.(check bool) "two programs" true
    (Run.Spec.program_digest s1 <> Run.Spec.program_digest s2);
  let geometry spec =
    Sim.Engine.plan_geometry (Run.Cache.artifact cache spec).Run.Spec.a_plans
  in
  let g1 = geometry s1 in
  ignore (geometry s2);
  let g1' = geometry s1 in
  Alcotest.(check int) "every lookup after the first evicted" 2
    (Run.Cache.counters cache).Run.Cache.evictions;
  Alcotest.(check bool) "re-parsed program, new geometry" true (g1' != g1);
  Alcotest.(check string) "run == fresh build"
    (fingerprint (cold_run s1))
    (fingerprint (Run.Cache.run cache s1))

(* The report grid runs on Run.Sweep: each of its rows equals one
   Run.Cache.run of the row's bench_spec. *)
let test_grid_equals_cache_runs () =
  let cache = Run.Cache.create () in
  List.iter
    (fun (r : Report.Experiment.bench_result) ->
      List.iter
        (fun (row : Report.Experiment.row) ->
          let spec =
            Report.Experiment.bench_spec ~machine:Machine.T3d.machine
              ~lib:row.lib ~config:row.config ~scale:`Test r.bench
          in
          let res = Run.Cache.run cache spec in
          let art = Run.Cache.artifact cache spec in
          Alcotest.(check (triple int int int64))
            (Printf.sprintf "%s [%s]: static, dynamic, time bits"
               r.bench.Programs.Bench_def.name row.label)
            ( Ir.Count.static_count art.Run.Spec.a_ir,
              Sim.Stats.dynamic_count res.Sim.Engine.stats,
              bits res.Sim.Engine.time )
            (row.static_count, row.dynamic_count, bits row.time))
        r.rows)
    (Report.Experiment.grid ~scale:`Test ())

(* The sweep workload's grid: the paper benchmarks and Jacobi at
   n <= 16 and one iteration, under every paper row, collective mode,
   topology and mesh (360 specs). *)
let sweep_grid () =
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
                      { Run.Sweep.label =
                          Printf.sprintf "%s/%s/%s/%s/%dx%d"
                            b.Programs.Bench_def.name row
                            (Opt.Config.collective_name collective)
                            (Machine.Topology.name topology) pr pc;
                        spec =
                          Run.Spec.(
                            default b.Programs.Bench_def.source
                            |> with_defines defines |> with_config config
                            |> with_collective collective
                            |> with_target Machine.T3d.machine lib
                            |> with_mesh pr pc |> with_topology topology) })
                    [ (2, 2); (4, 4) ])
                Machine.Topology.all)
            [ Opt.Config.Opaque; Opt.Config.Auto ])
        Report.Experiment.paper_rows)
    (Programs.Suite.paper_benchmarks @ [ Programs.Suite.jacobi ])

(* Two domains planning over shared geometries at once answer the grid
   exactly as one domain does. *)
let test_sweep_domains_agree () =
  let items = sweep_grid () in
  let run domains = (Run.Sweep.run ~domains (Run.Sweep.create ()) items).rows in
  List.iter2
    (fun (a : Run.Sweep.row) (b : Run.Sweep.row) ->
      Alcotest.(check string) "label" a.r_label b.r_label;
      Alcotest.(check (triple int64 int int))
        (a.r_label ^ ": time bits, static, dynamic")
        (bits a.r_time, a.r_static, a.r_dynamic)
        (bits b.r_time, b.r_static, b.r_dynamic))
    (run 1) (run 2)

(* ------------------------------------------------------------------ *)
(* Steady-state warm sweep: pinned minor-word budget                   *)
(* ------------------------------------------------------------------ *)

(* Once the plan cache and result memo are primed, a sweep pass is pure
   lookup: memo key, hashtable probe, row record, one rendered JSON row
   per item. None of that may mint an engine or compile a kernel — a
   leak of either shows up as tens of thousands of minor words per
   spec, so the budget below (with generous headroom over the ~1k words
   a lookup costs) pins the steady state. The first warm pass is burned
   as a warm-up so one-time growth (hashtable resizes, buffer growth in
   the emitter) is not charged to the steady state; [domains:1] keeps
   the loop on this domain, where [Gc.minor_words] can see it. *)
let warm_sweep_budget = 4096.0

let test_warm_sweep_allocation () =
  let sweep = Run.Sweep.create () in
  let items =
    List.map
      (fun (label, config) ->
        { Run.Sweep.label; spec = Run.Spec.with_config config (base ()) })
      [ ("baseline", Opt.Config.baseline);
        ("rr", Opt.Config.rr_only);
        ("cc", Opt.Config.cc_cum);
        ("pl", Opt.Config.pl_cum) ]
  in
  let n = List.length items in
  let null = open_out Filename.null in
  Fun.protect
    ~finally:(fun () -> close_out null)
    (fun () ->
      ignore (Run.Sweep.run ~domains:1 ~out:null sweep items);
      ignore (Run.Sweep.run ~domains:1 ~out:null sweep items);
      let w0 = Gc.minor_words () in
      let steady = Run.Sweep.run ~domains:1 ~out:null sweep items in
      let per_spec = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check int) "steady pass is all memo hits" n
        steady.Run.Sweep.memo_hits;
      Alcotest.(check bool)
        (Printf.sprintf
           "steady-state sweep allocates %.0f minor words/spec (budget %.0f)"
           per_spec warm_sweep_budget)
        true
        (per_spec <= warm_sweep_budget))

(* ------------------------------------------------------------------ *)
(* LRU eviction under a capacity bound                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let cache = Run.Cache.create ~capacity:2 () in
  let s1 = base () in
  let s2 = Run.Spec.with_config Opt.Config.baseline s1 in
  let s3 = Run.Spec.with_config Opt.Config.rr_only s1 in
  ignore (Run.Cache.find cache s1);
  ignore (Run.Cache.find cache s2);
  ignore (Run.Cache.find cache s3);
  Alcotest.(check int) "capacity bound holds" 2 (Run.Cache.length cache);
  Alcotest.(check int) "one eviction" 1
    (Run.Cache.counters cache).Run.Cache.evictions;
  let _, hit1 = Run.Cache.find cache s1 in
  Alcotest.(check bool) "least-recently-used entry was dropped" false hit1;
  let _, hit3 = Run.Cache.find cache s3 in
  Alcotest.(check bool) "recent entry survived" true hit3

(* ------------------------------------------------------------------ *)
(* Sweep service: second pass all hits, incremental JSON well-formed   *)
(* ------------------------------------------------------------------ *)

let sweep_items () =
  List.map
    (fun (label, config) ->
      { Run.Sweep.label;
        spec = Run.Spec.with_config config (base ()) })
    [ ("baseline", Opt.Config.baseline); ("pl", Opt.Config.pl_cum) ]

let test_sweep_second_pass () =
  let sweep = Run.Sweep.create () in
  let items = sweep_items () in
  let cold = Run.Sweep.run sweep items in
  Alcotest.(check int) "cold pass misses everything" 2 cold.Run.Sweep.misses;
  Alcotest.(check int) "cold pass memoizes nothing" 0
    cold.Run.Sweep.memo_hits;
  let path = Filename.temp_file "sweep" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let warm =
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Run.Sweep.run ~out:oc sweep items)
      in
      Alcotest.(check int) "warm pass all hits" 2 warm.Run.Sweep.hits;
      Alcotest.(check int) "warm pass no misses" 0 warm.Run.Sweep.misses;
      Alcotest.(check int) "warm pass answered from the result memo" 2
        warm.Run.Sweep.memo_hits;
      List.iter2
        (fun (c : Run.Sweep.row) (w : Run.Sweep.row) ->
          Alcotest.(check int64)
            (w.Run.Sweep.r_label ^ ": memoized time bits")
            (bits c.Run.Sweep.r_time) (bits w.Run.Sweep.r_time);
          Alcotest.(check int)
            (w.Run.Sweep.r_label ^ ": memoized dynamic count")
            c.Run.Sweep.r_dynamic w.Run.Sweep.r_dynamic)
        cold.Run.Sweep.rows warm.Run.Sweep.rows;
      (* the incremental artifact must be well-formed: balanced braces,
         one row object per item, a footer with the counters *)
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let count c = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 text in
      Alcotest.(check int) "braces balance" (count '{') (count '}');
      Alcotest.(check int) "one object per row plus envelope" 3 (count '{');
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "artifact mentions %S" needle)
            true
            (let nl = String.length needle and tl = String.length text in
             let rec scan i =
               i + nl <= tl
               && (String.sub text i nl = needle || scan (i + 1))
             in
             scan 0))
        [ "\"sweep\""; "\"label\""; "\"memo\": true"; "\"hits\": 2";
          "\"memo_hits\": 2"; "\"specs_per_sec\"" ])

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
  scan 0

let test_json_escape () =
  let str s =
    let b = Buffer.create 16 in
    Run.Json.add_str b s;
    Buffer.contents b
  in
  Alcotest.(check string) "escapes quotes, backslashes, controls"
    "\"a\\\"b\\\\c\\nd\\te\\u0001f\""
    (str "a\"b\\c\nd\te\x01f");
  Alcotest.(check string) "plain text passes through" "\"plain text\""
    (str "plain text")

(* A hostile row label (quotes, backslash, newline, tab, a raw control
   byte) must not corrupt the sweep's incremental JSON artifact. *)
let test_sweep_hostile_label () =
  let evil = "evil \"label\" \\ with\nnewline\tand \x01 control" in
  let sweep = Run.Sweep.create () in
  let items = [ { Run.Sweep.label = evil; spec = base () } ] in
  let path = Filename.temp_file "sweep_evil" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let _ =
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Run.Sweep.run ~out:oc sweep items)
      in
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let count c =
        String.fold_left (fun n x -> if x = c then n + 1 else n) 0 text
      in
      Alcotest.(check int) "braces balance" (count '{') (count '}');
      Alcotest.(check bool) "raw quoted label does not survive" false
        (contains text "evil \"label\"");
      Alcotest.(check bool) "escaped label is present" true
        (contains text "evil \\\"label\\\"");
      Alcotest.(check bool) "no raw control byte in the artifact" true
        (String.for_all (fun ch -> ch = '\n' || Char.code ch >= 0x20) text);
      Alcotest.(check bool) "control byte was \\u-escaped" true
        (contains text "\\u0001"))

(* ------------------------------------------------------------------ *)
(* Engines minted from one plan set are independent and agree bitwise  *)
(* ------------------------------------------------------------------ *)

(* The compiled kernel programs are store-agnostic and shared by every
   engine minted from one [plans] value; each engine binds its own
   stores and workspace. Running two mints of the same plan set — and a
   freshly planned third — must give bit-identical makespans, proving
   mint-time binding is complete and no mutable state leaks between
   engines through the shared plans. *)
let test_shared_plans_mint_twice () =
  let prog = Zpl.Check.compile_string src in
  let flat = Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum prog) in
  let plans =
    Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm ~pr:2
      ~pc:2 flat
  in
  let first = Sim.Engine.run (Sim.Engine.of_plans plans) in
  let second = Sim.Engine.run (Sim.Engine.of_plans plans) in
  let fresh =
    Sim.Engine.run
      (Sim.Engine.of_plans
         (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm
            ~pr:2 ~pc:2 flat))
  in
  Alcotest.(check int64) "second mint: same makespan bits"
    (bits first.Sim.Engine.time)
    (bits second.Sim.Engine.time);
  Alcotest.(check int64) "fresh plan: same makespan bits"
    (bits first.Sim.Engine.time)
    (bits fresh.Sim.Engine.time);
  Alcotest.(check int) "same dynamic count"
    (Sim.Stats.dynamic_count first.Sim.Engine.stats)
    (Sim.Stats.dynamic_count second.Sim.Engine.stats)

(* ------------------------------------------------------------------ *)
(* The golden grid: work and time invariants of every run              *)
(* ------------------------------------------------------------------ *)

(* Every run of test/golden/grid.ml's specs, with its benchmark: each
   benchmark at test scale under the six paper rows, three
   interconnects, opaque and auto-picked collectives, on 2x2 and 1x5. *)
let golden_runs =
  lazy
    (let cache = Run.Cache.create () in
     List.concat_map
       (fun (b : Programs.Bench_def.t) ->
         List.concat_map
           (fun (pr, pc) ->
             List.concat_map
               (fun (_, config, lib) ->
                 List.concat_map
                   (fun topo ->
                     List.map
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
                         (b, spec, Run.Cache.run cache spec))
                       [ Opt.Config.Opaque; Opt.Config.Auto ])
                   Machine.Topology.all)
               Report.Experiment.paper_rows)
           [ (2, 2); (1, 5) ])
       Programs.Suite.[ tomcatv; swm; simple; sp; jacobi ])

let golden_label (b : Programs.Bench_def.t) (spec : Run.Spec.t) =
  let pr, pc = spec.Run.Spec.mesh in
  Printf.sprintf "%s %s %s %s %dx%d" b.Programs.Bench_def.name
    (Opt.Config.name spec.Run.Spec.config)
    (Machine.Topology.name spec.Run.Spec.topology)
    (Opt.Config.collective_name spec.Run.Spec.config.Opt.Config.collective)
    pr pc

(* One budget serves the simulation and its oracle check. That is sound
   only if the oracle never does more work than the simulation: then a
   run the engine finishes cannot exhaust the oracle. *)
let test_oracle_work_bounded () =
  let oracle = Hashtbl.create 8 in
  List.iter
    (fun ((b : Programs.Bench_def.t), spec, (r : Sim.Engine.result)) ->
      let want =
        match Hashtbl.find_opt oracle b.Programs.Bench_def.name with
        | Some w -> w
        | None ->
            let o = Runtime.Seqexec.run (Run.Spec.parse spec) in
            let w = o.Runtime.Seqexec.steps + o.Runtime.Seqexec.cells in
            Hashtbl.add oracle b.Programs.Bench_def.name w;
            w
      in
      (* the work the engine charged: instructions plus cells *)
      let st = r.Sim.Engine.stats in
      let got =
        Array.fold_left
          (fun n (p : Sim.Stats.per_proc) -> n + p.Sim.Stats.cells)
          st.Sim.Stats.instructions st.Sim.Stats.procs
      in
      if want > got then
        Alcotest.failf "%s: oracle work %d > engine work %d"
          (golden_label b spec) want got)
    (Lazy.force golden_runs)

(* Every advance of a processor's clock is charged to compute, comm_cpu
   or wait, so the three add up to its finish time. *)
let test_times_add_up () =
  List.iter
    (fun (b, spec, (r : Sim.Engine.result)) ->
      Array.iteri
        (fun rank (p : Sim.Stats.per_proc) ->
          let t = p.Sim.Stats.times in
          let sum = t.Sim.Stats.compute +. t.comm_cpu +. t.wait in
          if Float.abs (sum -. t.finish) > 1e-12 *. t.finish then
            Alcotest.failf
              "%s proc %d: compute + comm_cpu + wait = %h, finish = %h"
              (golden_label b spec) rank sum t.finish)
        r.Sim.Engine.stats.Sim.Stats.procs)
    (Lazy.force golden_runs)

(* ------------------------------------------------------------------ *)
(* Bad input through the CLI guard                                     *)
(* ------------------------------------------------------------------ *)

(* TOMCATV at n = 3 on a 4x4 mesh leaves blocks with no rows, which
   [Engine.plan] rejects. The command guard must turn that into an
   [error:] line and exit code 1, not an uncaught exception. *)
let test_fine_mesh_exits_1 () =
  let spec =
    Cli.Cmdline.make_spec "tomcatv" [ ("n", 3.) ] Opt.Config.pl_cum None
      (Machine.T3d.machine, Machine.T3d.pvm)
      (4, 4) Machine.Topology.Ideal
  in
  Alcotest.(check int) "exit code" 1
    (Cli.Cmdline.handle (fun () ->
         ignore (Run.Cache.run (Run.Cache.create ()) spec)))

(* A loop that never ends must stop at the work budget and leave
   through the same guard: an [error:] line and exit 1, not an uncaught
   [Runtime.Budget.Exceeded]. A small budget keeps it fast. *)
let spin_src =
  {|
var x : float;
procedure main();
begin
  repeat
    x := x + 1.0;
  until x < 0.0;
end;
|}

let test_runaway_loop_exits_1 () =
  let file = Filename.temp_file "spin" ".zpl" in
  Out_channel.with_open_text file (fun oc -> output_string oc spin_src);
  let spec =
    Cli.Cmdline.make_spec file [] Opt.Config.pl_cum None
      (Machine.T3d.machine, Machine.T3d.pvm)
      (1, 1) Machine.Topology.Ideal
    |> Run.Spec.with_limit 1000
  in
  let code =
    Cli.Cmdline.handle (fun () ->
        ignore (Run.Cache.run (Run.Cache.create ()) spec))
  in
  Sys.remove file;
  Alcotest.(check int) "exit code" 1 code

(* The oracle of [zplc run --verify] runs under the same work budget; a
   run that outlives it leaves through the same guard, not as an
   uncaught [Runtime.Budget.Exceeded]. *)
let test_oracle_budget_exits_1 () =
  let prog = Zpl.Check.compile_string spin_src in
  Alcotest.(check int) "exit code" 1
    (Cli.Cmdline.handle (fun () ->
         ignore (Runtime.Seqexec.run ~limit:1000 prog)))

(* A reduction over a loop-variant region outside the index space
   ([1..4, 1..4]) once ran clean on the engine, which reduces each
   processor's part of that space only, while the oracle summed all 36
   cells. The engine (a plain run) and the oracle (what --verify adds)
   each stop with the same positioned error, and the guard exits 1. *)
let space_src =
  {|
var A : [1..4, 1..4] float;
var s : float;
var k : int;
procedure main();
begin
  k := 6;
  [1..k, 1..k] s := +<< 1.0;
  [1..4, 1..4] A := s;
end;
|}

let space_error = Error "8:3: +<< reduces over [1..6, 1..6], outside the index space [1..4, 1..4]"

let test_reduce_outside_space_exits_1 () =
  let file = Filename.temp_file "space" ".zpl" in
  Out_channel.with_open_text file (fun oc -> output_string oc space_src);
  let spec =
    Cli.Cmdline.make_spec file [] Opt.Config.pl_cum None
      (Machine.T3d.machine, Machine.T3d.pvm)
      (2, 2) Machine.Topology.Ideal
  in
  let run () = ignore (Run.Cache.run (Run.Cache.create ()) spec) in
  let result = Zpl.Loc.guard run and code = Cli.Cmdline.handle run in
  Sys.remove file;
  Alcotest.(check (result unit string)) "engine" space_error result;
  Alcotest.(check int) "exit code" 1 code

let test_oracle_outside_space_exits_1 () =
  let prog = Zpl.Check.compile_string space_src in
  let run () = ignore (Runtime.Seqexec.run prog) in
  Alcotest.(check (result unit string)) "oracle" space_error
    (Zpl.Loc.guard run);
  Alcotest.(check int) "exit code" 1 (Cli.Cmdline.handle run)

(* An integral -D outside the int range is bad input, not a wrapped
   value: [iters=1e19] once read as 0 iterations and ran clean. *)
let test_define_out_of_range_exits_1 () =
  let spec =
    Cli.Cmdline.make_spec "tomcatv" [ ("iters", 1e19) ] Opt.Config.pl_cum None
      (Machine.T3d.machine, Machine.T3d.pvm)
      (2, 2) Machine.Topology.Ideal
  in
  Alcotest.(check int) "exit code" 1
    (Cli.Cmdline.handle (fun () -> ignore (Run.Spec.parse spec)))

(* A define is read as a float, so an integer past 2^53 once lost its
   low bits ([iters=9007199254740993] ran 9007199254740992 iterations).
   The flag parser refuses it, a command-line error like any malformed
   flag (exit 124), and keeps every integer a float holds. *)
let test_inexact_define_exits_124 () =
  let eval arg =
    let cmd =
      Cmdliner.Cmd.v (Cmdliner.Cmd.info "t")
        Cmdliner.Term.(const ignore $ Cli.Cmdline.defines_arg)
    in
    Cmdliner.Cmd.eval ~err:Format.str_formatter ~argv:[| "t"; "-D"; arg |] cmd
  in
  let err = Format.flush_str_formatter in
  Alcotest.(check int) "2^53 + 1 is refused" Cmdliner.Cmd.Exit.cli_error
    (eval "iters=9007199254740993");
  Alcotest.(check bool) "the message names the define" true
    (contains (err ()) "iters=9007199254740993");
  List.iter
    (fun arg ->
      Alcotest.(check int) (arg ^ " is accepted") Cmdliner.Cmd.Exit.ok (eval arg);
      ignore (err ()))
    [ "iters=9007199254740992"; "n=-4611686018427387904"; "tol=1e-4";
      "n=1e19" ]

(* Statements whose regions break the statement-region rule
   ({!Zpl.Prog.check_region}). Each once ran clean, gave a wrong answer
   or stopped without a position, depending on the mesh; now each ends
   in the same positioned error from the checker or from every
   executor, and the guard exits 1:
   - a loop-variant row past A's last row: the engine and the oracle
     dropped rows 5-6 and --verify passed;
   - a read past the end of a row: the oracle read the next row's first
     cell (per point, one cell past A), --verify failed on a cell;
   - a row outside S that reads S inside it (static): ran clean on 1x1,
     failed unpositioned on 4x1, where rank 2 owns nothing of S;
   - A next to max_int, read through a shift: its fringe wrapped the
     allocation on 2x2 and the shift on 1x1, unpositioned;
   - the same along dim 2, which no fringe grows: unpositioned;
   - a reduction over more cells than an int counts (dim 2, which no
     array bounds here): the engine counted the cells past max_int,
     reduced none and returned the identity; the oracle ran out of
     memory. *)
let rule_cases =
  [ ( "rows past the lhs",
      {|var A : [1..4, 1..4] float;
var i : int;
procedure main();
begin
  for i := 1 to 6 do
    [i..i, 1..4] A := 1.0;
  end;
end;|},
      "6:5: statement region [5..5, 1..4] is outside \"A\"'s declared \
       region [1..4, 1..4]" );
    ( "read past a row end",
      {|var A, B : [1..4, 1..4] float;
var i : int;
procedure main();
begin
  [1..4, 1..4] A := Index1 * 10.0 + Index2;
  for i := 1 to 3 do
    [i..i, 1..4] B := A@[0,1];
  end;
end;|},
      "7:5: shifted reference A@[0,1] reads outside the declared region \
       [1..4, 1..4]" );
    ( "row outside a narrower array",
      {|var B : [1..5, 1..8] float;
var S : [1..4, 1..8] float;
direction no = [-1, 0];
procedure main();
begin
  [1..4, 1..8] S := Index1 + Index2;
  [5..5, 1..8] B := S@no;
end;|},
      "7:3: statement region [5..5, 1..8] reads \"S\" but lies outside its \
       declared region [1..4, 1..8]" );
    ( "fringe past max_int",
      {|constant m = 4611686018427387903;
region R = [1..2, m-1..m];
var A, B : [R] float;
var k : int;
procedure main();
begin
  k := m;
  [1..2, k..k] B := A@[0,1];
end;|},
      "3:1: array \"A\": its region [1..2, \
       4611686018427387902..4611686018427387903] grown by its fringe of 1 \
       leaves the int range" );
    ( "dim-2 shift past max_int",
      {|constant m = 4611686018427387903;
var P, Q : [1..2, 1..2, m-1..m] float;
var k : int;
procedure main();
begin
  k := m;
  [1..2, 1..2, k..k] Q := P@[0,0,1];
end;|},
      "7:3: shifted reference P@[0,0,1] reads outside the declared region \
       [1..2, 1..2, 4611686018427387902..4611686018427387903]" );
    ( "reduction past the int range",
      {|constant k = 2305843009213693952;
var A : [1..2, 1..2] float;
var s : float;
var m : int;
procedure main();
begin
  m := k;
  [1..2, 1..2, 1..m] s := +<< 1.0;
end;|},
      "8:3: +<< reduces over [1..2, 1..2, 1..2305843009213693952], more \
       cells than an int counts" ) ]

let test_region_rule_errors () =
  List.iter
    (fun (name, src, msg) ->
      let want = Error msg in
      List.iter
        (fun row_path ->
          Alcotest.(check (result unit string))
            (Printf.sprintf "%s: oracle, row path %b" name row_path)
            want
            (Zpl.Loc.guard (fun () ->
                 ignore
                   (Runtime.Seqexec.run ~row_path
                      (Zpl.Check.compile_string src)))))
        [ true; false ];
      List.iter
        (fun (pr, pc) ->
          let run () =
            ignore
              (Run.Cache.run (Run.Cache.create ())
                 Run.Spec.(default src |> with_mesh pr pc))
          in
          let label = Printf.sprintf "%s: engine %dx%d" name pr pc in
          Alcotest.(check (result unit string)) label want
            (Zpl.Loc.guard run);
          Alcotest.(check int) (label ^ " exit code") 1
            (Cli.Cmdline.handle run))
        [ (1, 1); (2, 2); (4, 1) ])
    rule_cases

let () =
  Alcotest.run "run"
    [ ( "cache",
        [ Alcotest.test_case "hit shares plans physically" `Quick
            test_hit_physical_equality;
          Alcotest.test_case "single field flip misses" `Quick
            test_single_flip_misses;
          Alcotest.test_case "limit excluded from key" `Quick
            test_limit_excluded;
          Alcotest.test_case "source digested by content" `Quick
            test_source_digest_key;
          Alcotest.test_case "defines order canonical" `Quick
            test_defines_canonical;
          QCheck_alcotest.to_alcotest prop_key_iff_knobs;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction ] );
      ( "results",
        [ Alcotest.test_case "cached == cold over paper rows" `Quick
            test_cached_equals_cold_paper_rows;
          Alcotest.test_case "shared geometry == fresh plans" `Quick
            test_shared_geometry_grid;
          Alcotest.test_case "geometry shares fringe blueprints" `Quick
            test_geometry_shares_blueprints;
          Alcotest.test_case "sweep on 2 domains == 1 domain" `Quick
            test_sweep_domains_agree;
          Alcotest.test_case "shared plans mint independent engines" `Quick
            test_shared_plans_mint_twice;
          Alcotest.test_case
            "cached mint == fresh compile (benchmarks x rows x topologies)"
            `Slow test_cached_mint_grid;
          Alcotest.test_case "warm sweep within minor-word budget" `Quick
            test_warm_sweep_allocation;
          Alcotest.test_case "evicted program gets a new geometry" `Quick
            test_evicted_program_new_geometry;
          Alcotest.test_case "report grid == one cache run per spec" `Quick
            test_grid_equals_cache_runs;
          Alcotest.test_case "oracle work <= engine work (golden grid)"
            `Quick test_oracle_work_bounded;
          Alcotest.test_case "processor times add up to finish (golden grid)"
            `Quick test_times_add_up ] );
      ( "sweep",
        [ Alcotest.test_case "second pass hits and JSON artifact" `Quick
            test_sweep_second_pass;
          Alcotest.test_case "json escape helper" `Quick test_json_escape;
          Alcotest.test_case "hostile label stays well-formed" `Quick
            test_sweep_hostile_label ] );
      ( "cli",
        [ Alcotest.test_case "mesh finer than the array exits 1" `Quick
            test_fine_mesh_exits_1;
          Alcotest.test_case "runaway loop exits 1" `Quick
            test_runaway_loop_exits_1;
          Alcotest.test_case "oracle budget exits 1" `Quick
            test_oracle_budget_exits_1;
          Alcotest.test_case "reduction outside the index space exits 1"
            `Quick test_reduce_outside_space_exits_1;
          Alcotest.test_case "oracle: outside the index space exits 1"
            `Quick test_oracle_outside_space_exits_1;
          Alcotest.test_case "statement-region rule: one error everywhere"
            `Quick test_region_rule_errors;
          Alcotest.test_case "out-of-range define exits 1" `Quick
            test_define_out_of_range_exits_1;
          Alcotest.test_case "inexact integer define exits 124" `Quick
            test_inexact_define_exits_124 ] ) ]
