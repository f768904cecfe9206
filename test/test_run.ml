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
    ("row_path", Run.Spec.with_row_path false);
    ("fuse", Run.Spec.with_fuse false);
    ("cse", Run.Spec.with_cse false);
    ("wire", Run.Spec.with_wire false);
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
    [ List.nth flips 2; List.nth flips 7; List.nth flips 10 ]

let test_runtime_knobs_excluded () =
  let b = base () in
  let k = Run.Spec.key b in
  Alcotest.(check string) "limit is not part of the key" k
    (Run.Spec.key (Run.Spec.with_limit 5 b));
  Alcotest.(check string) "domains is not part of the key" k
    (Run.Spec.key (Run.Spec.with_domains 4 b))

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

(* qcheck: a random subset of knob flips keys equal iff the subset is
   empty, while limit/domains perturbations never affect the key *)
let prop_key_iff_knobs =
  let gen =
    QCheck.make
      ~print:(fun (a, b, c, d, l, m) ->
        Printf.sprintf "row_path=%b fuse=%b cse=%b wire=%b limit=%d domains=%d"
          a b c d l m)
      QCheck.Gen.(
        map
          (fun (a, b, c, d, l, m) -> (a, b, c, d, l, m))
          (tup6 bool bool bool bool (int_range 1 1000) (int_range 1 8)))
  in
  QCheck.Test.make ~count:100 ~name:"key ignores limit/domains, sees knobs"
    gen
    (fun (row_path, fuse, cse, wire, limit, domains) ->
      let b = base () in
      let s =
        Run.Spec.(
          b |> with_row_path row_path |> with_fuse fuse |> with_cse cse
          |> with_wire wire |> with_limit limit |> with_domains domains)
      in
      let knobs_default = row_path && fuse && cse && wire in
      Bool.equal (Run.Spec.equal b s) knobs_default)

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
      let cold = Run.Spec.run spec in
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
              let cold = Run.Spec.run spec in
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
  Alcotest.(check string) "escapes quotes, backslashes, controls"
    "a\\\"b\\\\c\\nd\\te\\u0001f"
    (Run.Json.escape "a\"b\\c\nd\te\x01f");
  Alcotest.(check string) "plain text passes through" "plain text"
    (Run.Json.escape "plain text")

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

let () =
  Alcotest.run "run"
    [ ( "cache",
        [ Alcotest.test_case "hit shares plans physically" `Quick
            test_hit_physical_equality;
          Alcotest.test_case "single field flip misses" `Quick
            test_single_flip_misses;
          Alcotest.test_case "limit/domains excluded from key" `Quick
            test_runtime_knobs_excluded;
          Alcotest.test_case "source digested by content" `Quick
            test_source_digest_key;
          Alcotest.test_case "defines order canonical" `Quick
            test_defines_canonical;
          QCheck_alcotest.to_alcotest prop_key_iff_knobs;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction ] );
      ( "results",
        [ Alcotest.test_case "cached == cold over paper rows" `Quick
            test_cached_equals_cold_paper_rows;
          Alcotest.test_case "shared plans mint independent engines" `Quick
            test_shared_plans_mint_twice;
          Alcotest.test_case
            "cached mint == fresh compile (benchmarks x rows x topologies)"
            `Slow test_cached_mint_grid;
          Alcotest.test_case "warm sweep within minor-word budget" `Quick
            test_warm_sweep_allocation ] );
      ( "sweep",
        [ Alcotest.test_case "second pass hits and JSON artifact" `Quick
            test_sweep_second_pass;
          Alcotest.test_case "json escape helper" `Quick test_json_escape;
          Alcotest.test_case "hostile label stays well-formed" `Quick
            test_sweep_hostile_label ] ) ]
