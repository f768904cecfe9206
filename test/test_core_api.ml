(** Tests of the high-level [Commopt] API that examples, the CLI and
    downstream users build on. *)

open Commopt

let src =
  {|
constant n = 12;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction e = [0, 1]; direction w = [0, -1];
var A, B : [BigR] float;
var err : float;
var t : int;
procedure main();
begin
  [BigR] A := Index1 * 0.5;
  for t := 1 to 4 do
    [R] B := 0.5 * (A@e + A@w);
    [R] err := max<< abs(B - A@e);
    [R] A := B;
  end;
end;
|}

(** [src] on a [pr x pc] mesh, everything else at the spec defaults. *)
let on ?(pr = 2) ?(pc = 2) src = Run.Spec.(default src |> with_mesh pr pc)

(** A spec's compiled artifacts and one run of it, from one cache. *)
let compiled_run spec =
  let cache = Run.Cache.create () in
  (of_spec ~cache spec, Run.Cache.run cache spec)

let test_compile_defaults () =
  let c = of_spec (Run.Spec.default src) in
  Alcotest.(check bool) "default config is pl" true
    (c.config = Opt.Config.pl_cum);
  Alcotest.(check bool) "positive static count" true (static_count c > 0)

let test_defines () =
  let c = of_spec Run.Spec.(default src |> with_defines [ ("n", 6.) ]) in
  Alcotest.(check string) "resized" "[0..7, 0..7]"
    (Zpl.Region.to_string (Zpl.Prog.array_info c.prog 0).a_region)

(* one parse serves every row: [Run.Spec.compile ~prog] reuses it *)
let test_recompile () =
  let base = Run.Spec.(default src |> with_config Opt.Config.baseline) in
  let prog = Run.Spec.parse base in
  let p, ir, _ = Run.Spec.compile ~prog base
  and p', ir', _ =
    Run.Spec.compile ~prog (Run.Spec.with_config Opt.Config.cc_cum base)
  in
  Alcotest.(check bool) "same typed program" true (p == prog && p' == prog);
  Alcotest.(check bool) "fewer transfers" true
    (Ir.Count.static_count ir' < Ir.Count.static_count ir)

let test_simulate_and_oracle () =
  let c, res = compiled_run (on src) in
  let oracle = run_oracle c in
  Alcotest.(check bool) "exact" true
    (first_divergence ~tolerance:0.0 c res oracle = None);
  Alcotest.(check bool) "time advanced" true (res.Sim.Engine.time > 0.)

let test_verify_passes () = ignore (verify (on src))

(* A spec always compiles and runs one program, so the sabotaged flat
   program is planned directly on the spec's target. *)
let test_verify_rejects_sabotage () =
  (* hand-build a miscompiled program: transfers dropped *)
  let prog = Zpl.Check.compile_string src in
  let code = Opt.Lower.lower prog in
  Ir.Block.map_blocks
    (fun b ->
      List.iter (fun (x : Ir.Block.xfer) -> x.Ir.Block.live <- false) b.Ir.Block.xfers)
    code;
  let ir = Ir.Instr.of_code prog code in
  let c = { prog; config = Opt.Config.baseline; ir; flat = Ir.Flat.flatten ir } in
  let res =
    Sim.Engine.run (Sim.Engine.of_plans (Run.Spec.plan (on src) c.flat))
  in
  Alcotest.(check bool) "oracle check catches it" true
    (first_divergence c res (run_oracle c) <> None)

let test_simulate_other_machines () =
  List.iter
    (fun (machine, lib) ->
      let res =
        Run.Cache.run (Run.Cache.create ())
          (Run.Spec.with_target machine lib (on src))
      in
      Alcotest.(check bool) "ran" true (res.Sim.Engine.time > 0.))
    [ (Machine.Paragon.machine, Machine.Paragon.nx_sync);
      (Machine.Paragon.machine, Machine.Paragon.nx_async);
      (Machine.Paragon.machine, Machine.Paragon.nx_callback);
      (Machine.T3d.machine, Machine.T3d.shmem) ]

(* Verification on a cache that already ran the spec reuses its plans:
   the run compiles and plans once, and verify hits. *)
let test_verify_reuses_cache () =
  let spec =
    Run.Spec.with_collective (Opt.Config.Forced Ir.Coll.Dissem) (on src)
  in
  let cache = Run.Cache.create () in
  let ran = Run.Cache.run cache spec in
  let verified = verify ~cache spec in
  Alcotest.(check (float 0.)) "same simulated time" ran.Sim.Engine.time
    verified.Sim.Engine.time;
  let k = Run.Cache.counters cache in
  Alcotest.(check int) "one miss" 1 k.Run.Cache.misses;
  (* verify's compiled artifacts and its run: both answered by the cache *)
  Alcotest.(check int) "verify hits twice" 2 k.Run.Cache.hits

(* Regression: the oracle comparison used to test [d > tolerance] where
   [d] is the relative difference — false whenever [d] is NaN, so a
   simulation bug producing NaN where the oracle has a finite value
   sailed straight through [first_divergence].
   Plant a NaN in a simulated store and check the comparison now flags
   it (and that the old predicate demonstrably did not). *)
let test_nan_flagged_as_divergence () =
  let c, res = compiled_run (on ~pr:1 ~pc:1 src) in
  let oracle = run_oracle c in
  Alcotest.(check bool) "clean before planting" true
    (first_divergence ~tolerance:0.0 c res oracle = None);
  let pt = [| 2; 2 |] in
  let stores =
    Sim.Engine.proc_stores (Sim.Engine.procs res.Sim.Engine.engine).(0)
  in
  Runtime.Store.set stores.(0) pt Float.nan;
  let want = Runtime.Store.get oracle.Runtime.Seqexec.stores.(0) pt in
  (* the pre-fix comparison on exactly this cell: NaN-blind, passes *)
  let pre_fix_diverges =
    Float.abs (want -. Float.nan) /. (1.0 +. Float.abs want) > 1e-9
  in
  Alcotest.(check bool) "pre-fix comparison passes the NaN (the bug)" false
    pre_fix_diverges;
  Alcotest.(check bool) "cell_diverges flags it" true
    (cell_diverges ~tolerance:1e-9 ~got:Float.nan ~want);
  (match first_divergence c res oracle with
  | None -> Alcotest.fail "first_divergence missed the planted NaN"
  | Some d ->
      Alcotest.(check bool) "reports the NaN cell" true
        (Float.is_nan d.d_got && d.d_point = pt));
  match first_divergence ~tolerance:0.0 c res oracle with
  | None -> Alcotest.fail "exact comparison missed the planted NaN"
  | Some d ->
      Alcotest.(check bool) "exact comparison stops at the NaN cell" true
        (Float.is_nan d.d_got && d.d_point = pt)

(* Two NaNs agree: if the oracle itself predicts NaN at a cell, the
   simulation matching it is not a divergence. *)
let test_nan_both_sides_agree () =
  let c, res = compiled_run (on ~pr:1 ~pc:1 src) in
  let oracle = run_oracle c in
  let pt = [| 2; 2 |] in
  let stores =
    Sim.Engine.proc_stores (Sim.Engine.procs res.Sim.Engine.engine).(0)
  in
  Runtime.Store.set stores.(0) pt Float.nan;
  Runtime.Store.set oracle.Runtime.Seqexec.stores.(0) pt Float.nan;
  Alcotest.(check bool) "no divergence" true
    (first_divergence c res oracle = None);
  Alcotest.(check bool) "exact comparison agrees" true
    (first_divergence ~tolerance:0.0 c res oracle = None)

(* Opposite infinities: |inf - (-inf)| / (1 + inf) is NaN, another cell
   the pre-fix comparison silently passed. *)
let test_opposite_infinities_diverge () =
  Alcotest.(check bool) "inf vs -inf diverges" true
    (cell_diverges ~tolerance:1e-9 ~got:infinity ~want:neg_infinity);
  Alcotest.(check bool) "equal infinities agree" false
    (cell_diverges ~tolerance:1e-9 ~got:infinity ~want:infinity)

(* A reduction region that only becomes empty at run time slips past the
   checker's static rejection by design; the documented semantics are
   the operator's identity, uniformly in the oracle and the simulator. *)
let test_dynamic_empty_reduction_identity () =
  let spec =
    on
      {|
constant n = 8;
region R = [1..n, 1..n];
var A : [R] float;
var x, s : float;
var k : int;
procedure main();
begin
  [R] A := 2.0;
  k := 0;
  [1..k, 1..n] x := max<< A;
  [1..k, 1..n] s := +<< A;
end;
|}
  in
  let oracle = run_oracle (of_spec spec) in
  (match Runtime.Seqexec.scalar_value oracle "x" with
  | Some (Runtime.Values.VFloat v) ->
      Alcotest.(check (float 0.)) "max<< identity" neg_infinity v
  | _ -> Alcotest.fail "x should be a float scalar");
  (match Runtime.Seqexec.scalar_value oracle "s" with
  | Some (Runtime.Values.VFloat v) ->
      Alcotest.(check (float 0.)) "+<< identity" 0.0 v
  | _ -> Alcotest.fail "s should be a float scalar");
  (* the simulated combining tree agrees with the oracle *)
  ignore (verify spec)

let test_loc_guard () =
  (match Zpl.Loc.guard (fun () -> of_spec (Run.Spec.default "nonsense !")) with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error msg -> Alcotest.(check bool) "located" true (String.length msg > 3))

(* Without a cache [of_spec] stops at the flat program: planning the
   engine for tomcatv at n = 100000 would allocate the 4x4 mesh's
   stores and blit plans, 38.6M words (minor plus major minus promoted,
   flushed by a minor collection on both sides). *)
let test_of_spec_plans_nothing () =
  let spec =
    Run.Spec.(
      default Programs.Suite.tomcatv.Programs.Bench_def.source
      |> with_defines [ ("n", 100000.) ])
  in
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let c = of_spec spec in
  let w = words () -. w0 in
  ignore (Sys.opaque_identity c);
  Alcotest.(check bool)
    (Printf.sprintf "of_spec allocates %.0f words (want < 100000)" w)
    true (w < 100_000.)

let () =
  Alcotest.run "core-api"
    [ ( "api",
        [ Alcotest.test_case "compile" `Quick test_compile_defaults;
          Alcotest.test_case "defines" `Quick test_defines;
          Alcotest.test_case "recompile" `Quick test_recompile;
          Alcotest.test_case "simulate vs oracle" `Quick test_simulate_and_oracle;
          Alcotest.test_case "verify" `Quick test_verify_passes;
          Alcotest.test_case "verify catches sabotage" `Quick
            test_verify_rejects_sabotage;
          Alcotest.test_case "other machines" `Quick test_simulate_other_machines;
          Alcotest.test_case "verify reuses the cached plans" `Quick
            test_verify_reuses_cache;
          Alcotest.test_case "NaN flagged as divergence" `Quick
            test_nan_flagged_as_divergence;
          Alcotest.test_case "both-NaN cells agree" `Quick
            test_nan_both_sides_agree;
          Alcotest.test_case "opposite infinities diverge" `Quick
            test_opposite_infinities_diverge;
          Alcotest.test_case "dynamic empty reduction identity" `Quick
            test_dynamic_empty_reduction_identity;
          Alcotest.test_case "error guard" `Quick test_loc_guard;
          Alcotest.test_case "of_spec plans no engine" `Quick
            test_of_spec_plans_nothing ] ) ]
