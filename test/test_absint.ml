(** Abstract interpretation (Absint), static communication volume
    (Commvol + Run.Predict), and the dead-scalar lint (Deadscalar):
    interval algebra, decided branches and trip counts on the final IR,
    engine-validated exact predictions, and the lint's feasible-path
    read analysis. *)

open Commopt
module A = Analysis.Absint

let contains_str hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Interval algebra                                                    *)
(* ------------------------------------------------------------------ *)

let ival = Alcotest.testable (fun ppf i -> Fmt.string ppf (A.string_of_ival i))
    A.equal_ival

let test_interval_algebra () =
  Alcotest.(check ival) "nan endpoint collapses to top" A.top (A.mk Float.nan 3.);
  Alcotest.(check ival) "join" (A.mk 1. 5.) (A.join (A.point 1.) (A.point 5.));
  Alcotest.(check ival) "add" (A.mk 3. 7.) (A.add (A.mk 1. 2.) (A.mk 2. 5.));
  Alcotest.(check ival) "mul signs" (A.mk (-10.) 10.)
    (A.mul (A.mk (-2.) 2.) (A.point 5.));
  Alcotest.(check ival) "div by interval containing 0 is top" A.top
    (A.div (A.point 1.) (A.mk (-1.) 1.));
  Alcotest.(check bool) "contains" true (A.contains (A.mk 1. 3.) 2.);
  Alcotest.(check bool) "top contains nan" true (A.contains A.top Float.nan);
  let w = A.widen_ival (A.mk 0. 1.) (A.mk 0. 2.) in
  Alcotest.(check bool) "widening blows moved hi to inf" true
    (w.A.hi = Float.infinity && w.A.lo = 0.)

let test_decide_bool () =
  Alcotest.(check (option bool)) "point 1 -> true" (Some true)
    (A.decide_bool (A.point 1.));
  Alcotest.(check (option bool)) "point 0 -> false" (Some false)
    (A.decide_bool (A.point 0.));
  Alcotest.(check (option bool)) "mixed -> undecided" None
    (A.decide_bool (A.mk 0. 1.))

let test_string_of_ival () =
  Alcotest.(check string) "point" "4" (A.string_of_ival (A.point 4.));
  Alcotest.(check string) "range" "[1,3]" (A.string_of_ival (A.mk 1. 3.));
  Alcotest.(check string) "top" "[-inf,inf]" (A.string_of_ival A.top)

let test_for_trips () =
  Alcotest.(check ival) "1..4 runs 4 times" (A.point 4.)
    (A.for_trips ~step:1 ~lo:(A.point 1.) ~hi:(A.point 4.));
  Alcotest.(check ival) "empty when hi < lo" (A.point 0.)
    (A.for_trips ~step:1 ~lo:(A.point 5.) ~hi:(A.point 1.))

(* ------------------------------------------------------------------ *)
(* Structured analysis on the final IR                                 *)
(* ------------------------------------------------------------------ *)

let prelude =
  {|
constant n = 4;
region R = [1..n, 1..n];
var A : [R] float;
|}

(* Opt.Passes.compile would splice decided branches out of the program
   before the analysis under test ever sees them, so these fixtures
   lower the unspliced program directly *)
let compile_nodbe src =
  let p = Zpl.Check.compile_string src in
  Ir.Instr.of_code p
    (Opt.Passes.optimize Opt.Config.baseline (Opt.Lower.lower p))

let test_structured_summary () =
  let ir =
    compile_nodbe
      (prelude
     ^ {|
var x, y, t : int;
procedure main();
begin
  x := 3;
  if x > 5 then x := 100; end;
  for t := 1 to 4 do y := y + 1; end;
  [R] A := 1.0;
end;
|})
  in
  let s = A.analyze ir in
  let decisions = Hashtbl.fold (fun _ b l -> b :: l) s.A.s_decisions [] in
  Alcotest.(check (list bool)) "the one If is decided false" [ false ]
    decisions;
  let trips = Hashtbl.fold (fun _ t l -> t :: l) s.A.s_trips [] in
  Alcotest.(check (list ival)) "the one For runs exactly 4 times"
    [ A.point 4. ] trips;
  let x =
    match Zpl.Prog.find_scalar ir.Ir.Instr.prog "x" with
    | Some i -> i.Zpl.Prog.s_id
    | None -> Alcotest.fail "no scalar x"
  in
  (* the loop never writes x, so the decided-false arm's 100 must leave
     the exit state a precise point *)
  Alcotest.(check ival) "exit x is exactly 3" (A.point 3.) s.A.s_exit.(x);
  Alcotest.(check bool) "hull starts at the initial 0" true
    (A.contains s.A.s_hull.(x) 0.);
  Alcotest.(check bool) "infeasible 100 not in hull" false
    (A.contains s.A.s_hull.(x) 100.)

let test_repeat_widening_terminates () =
  (* a data-dependent repeat: widening must reach a fixpoint and give
     top-ish trip bounds rather than diverge *)
  let ir =
    compile_nodbe
      (prelude
     ^ {|
var x : float;
procedure main();
begin
  repeat
    [R] A := 1.0;
    x := +<< A;
  until x > 0.5;
end;
|})
  in
  let s = A.analyze ir in
  let trips = Hashtbl.fold (fun _ t l -> t :: l) s.A.s_trips [] in
  match trips with
  | [ t ] ->
      Alcotest.(check bool) "repeat runs at least once" true (t.A.lo >= 1.);
      Alcotest.(check bool) "unbounded above" true (t.A.hi = Float.infinity)
  | _ -> Alcotest.fail "expected exactly one loop summary"

(* ------------------------------------------------------------------ *)
(* Commvol + Predict: engine-validated static predictions              *)
(* ------------------------------------------------------------------ *)

let bench name =
  List.find (fun b -> b.Programs.Bench_def.name = name) Programs.Suite.all

let test_predict_verifies_jacobi () =
  let b = bench "jacobi" in
  List.iter
    (fun collective ->
      List.iter
        (fun topology ->
          List.iter
            (fun (label, config, lib) ->
              let spec =
                Run.Spec.(
                  default b.Programs.Bench_def.source
                  |> with_defines b.Programs.Bench_def.test_defines
                  |> with_config config |> with_collective collective
                  |> with_lib lib |> with_mesh 2 2
                  |> with_topology topology)
              in
              let t = Run.Predict.analyze spec in
              match Run.Predict.verify t with
              | [] -> ()
              | errs ->
                  Alcotest.failf "jacobi [%s] %s --collective=%s:\n%s" label
                    (Machine.Topology.name topology)
                    (Opt.Config.collective_name collective)
                    (String.concat "\n" errs))
            Report.Experiment.paper_rows)
        Machine.Topology.[ Ideal; Mesh; Torus ])
    (Opt.Config.Opaque :: Opt.Config.Auto
    :: List.map (fun a -> Opt.Config.Forced a) Ir.Coll.all_algs)

let test_predict_summary_exact () =
  let b = bench "synth" in
  let spec =
    Run.Spec.(
      default b.Programs.Bench_def.source
      |> with_defines b.Programs.Bench_def.test_defines
      |> with_mesh 2 2)
  in
  let t = Run.Predict.analyze spec in
  let s = Run.Predict.summarize t in
  Alcotest.(check int) "messages exact" s.Run.Predict.s_messages_meas
    s.Run.Predict.s_messages_pred;
  Alcotest.(check int) "bytes exact" s.Run.Predict.s_bytes_meas
    s.Run.Predict.s_bytes_pred;
  Alcotest.(check int) "dynamic count exact" s.Run.Predict.s_dyn_meas
    s.Run.Predict.s_dyn_pred;
  Alcotest.(check bool) "static bound brackets measured messages" true
    (A.contains s.Run.Predict.s_messages_bound
       (float_of_int s.Run.Predict.s_messages_meas));
  Alcotest.(check bool) "static bound brackets dynamic count" true
    (A.contains s.Run.Predict.s_dyn_bound
       (float_of_int s.Run.Predict.s_dyn_meas))

let test_predict_json_shape () =
  let b = bench "synth" in
  let spec =
    Run.Spec.(
      default b.Programs.Bench_def.source
      |> with_defines b.Programs.Bench_def.test_defines
      |> with_mesh 2 2)
  in
  let j = Run.Predict.to_json ~name:"synth" (Run.Predict.analyze spec) in
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "json has %S" frag)
        true (contains_str j frag))
    [ "\"program\":\"synth\""; "\"sites\":["; "\"messages\":";
      "\"dynamic_count\":"; "\"ok\":true" ]

(* ------------------------------------------------------------------ *)
(* Dead-scalar lint                                                    *)
(* ------------------------------------------------------------------ *)

let lint ?defines src =
  List.map Analysis.Deadscalar.warning_to_string
    (Analysis.Deadscalar.run (Zpl.Check.compile_string ?defines src))

let has ws needle = List.exists (fun w -> contains_str w needle) ws

let lint_src =
  {|
constant n = 4;
constant unused = 7;
region R = [1..n, 1..n];
var A : [R] float;
var live, dead : float;
procedure main();
begin
  live := 1.0;
  [R] A := live;
  dead := 2.0;
end;
|}

let test_lint_dead_scalar () =
  let ws = lint lint_src in
  Alcotest.(check bool) "unused constant flagged" true
    (has ws "constant \"unused\" is never read");
  Alcotest.(check bool) "dead scalar flagged" true
    (has ws "scalar \"dead\" is never read on any feasible path");
  Alcotest.(check bool) "dead assignment flagged" true
    (has ws "assignment to \"dead\" is never read on any feasible path");
  Alcotest.(check bool) "live scalar silent" false (has ws "\"live\"");
  Alcotest.(check bool) "used constant silent" false (has ws "\"n\"")

let test_lint_unknown_define () =
  let ws = lint ~defines:[ ("typo", 1.) ] lint_src in
  Alcotest.(check bool) "unknown -D flagged" true
    (has ws "-D typo matches no constant declaration")

let test_lint_feasibility () =
  (* g is read only inside a branch the interval domain proves dead, so
     it is still dead; a read under an undecided guard keeps it live *)
  let src guard =
    Printf.sprintf
      {|
constant n = 4;
constant flag = 0;
region R = [1..n, 1..n];
var A : [R] float;
var g, h : float;
procedure main();
begin
  g := 1.0;
  [R] h := +<< A;
  if %s then h := g; end;
  [R] A := h;
end;
|}
      guard
  in
  let ws = lint (src "flag > 0") in
  Alcotest.(check bool) "read on infeasible path only -> dead" true
    (has ws "scalar \"g\" is never read on any feasible path");
  let ws = lint (src "h > 0.0") in
  Alcotest.(check bool) "read under undecided guard -> live" false
    (has ws "\"g\" is never read")

let test_lint_zero_trip_for () =
  (* the for body never runs, so x keeps its initial 0 and the else
     arm, the only reader of z, runs on every execution *)
  let ws =
    lint
      {|
constant n = 4;
region R = [1..n, 1..n];
var A : [R] float;
var x, z : float;
procedure main();
begin
  z := 2.0;
  for i := 1 to 0 do x := 1.0; end;
  if x = 1.0 then
    [R] A := 0.0;
  else
    [R] A := z;
  end;
end;
|}
  in
  Alcotest.(check (list string)) "no warning names z" []
    (List.filter (fun w -> contains_str w "\"z\"") ws)

let test_lint_warnings_carry_positions () =
  List.iter
    (fun w ->
      match String.index_opt w ':' with
      | Some i -> (
          match int_of_string_opt (String.sub w 0 i) with
          | Some _ -> ()
          | None -> Alcotest.failf "warning lacks line:col prefix: %s" w)
      | None -> Alcotest.failf "warning lacks location: %s" w)
    (lint lint_src)

let () =
  Alcotest.run "absint"
    [ ( "intervals",
        [ Alcotest.test_case "algebra" `Quick test_interval_algebra;
          Alcotest.test_case "decide_bool" `Quick test_decide_bool;
          Alcotest.test_case "rendering" `Quick test_string_of_ival;
          Alcotest.test_case "for_trips" `Quick test_for_trips ] );
      ( "programs",
        [ Alcotest.test_case "decisions, trips, hull" `Quick
            test_structured_summary;
          Alcotest.test_case "repeat widening terminates" `Quick
            test_repeat_widening_terminates ] );
      ( "predict",
        [ Alcotest.test_case "jacobi verified on all rows x topologies"
            `Quick test_predict_verifies_jacobi;
          Alcotest.test_case "summary exact agreement" `Quick
            test_predict_summary_exact;
          Alcotest.test_case "json shape" `Quick test_predict_json_shape ] );
      ( "deadscalar",
        [ Alcotest.test_case "dead scalars and constants" `Quick
            test_lint_dead_scalar;
          Alcotest.test_case "unknown -D" `Quick test_lint_unknown_define;
          Alcotest.test_case "feasible-path reads" `Quick test_lint_feasibility;
          Alcotest.test_case "zero-trip for keeps the else arm" `Quick
            test_lint_zero_trip_for;
          Alcotest.test_case "warnings carry positions" `Quick
            test_lint_warnings_carry_positions ] ) ]
