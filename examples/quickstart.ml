(** Quickstart: compile a small mini-ZPL stencil program, look at the
    IRONMAN communication the optimizer produces, simulate it on a 4x4
    T3D, and check the distributed run against the sequential oracle.

    Run with: [dune exec examples/quickstart.exe] *)

open Commopt

let source =
  {|
-- heat diffusion with a convergence test
constant n   = 32;
constant tol = 0.001;

region R    = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];

direction east  = [ 0,  1];
direction west  = [ 0, -1];
direction north = [-1,  0];
direction south = [ 1,  0];

var T, TNew, Flux : [BigR] float;
var err : float;

procedure main();
begin
  [BigR] T := 0.0;
  [BigR] Flux := 0.0;
  [n+1..n+1, 0..n+1] T := 100.0;      -- hot plate at the southern edge
  repeat
    [R] TNew := 0.25 * (T@east + T@west + T@north + T@south);
    -- reuses all four shifts of T (redundant) and adds shifts of Flux
    -- with the same directions (combinable)
    [R] TNew := TNew + 0.05 * (T@east - T@west)
                + 0.05 * (Flux@north - Flux@south);
    [R] err := max<< abs(TNew - T);
    [R] Flux := TNew - T;
    [R] T := TNew;
  until err < tol;
end;
|}

let () =
  (* 1. describe both runs as specs (the default: pl on a 4x4 T3D with
     PVM) and compile them through a cache — equal specs would come
     back without recompiling *)
  let opt_spec = Run.Spec.default source in
  let base_spec = Run.Spec.with_config Opt.Config.baseline opt_spec in
  let cache = Run.Cache.create () in
  let baseline = of_spec ~cache base_spec in
  let optimized = of_spec ~cache opt_spec in
  Printf.printf "static communication count: baseline=%d optimized=%d\n\n"
    (static_count baseline) (static_count optimized);

  (* 2. show the optimized IR: DR/SR hoisted, DN/SV before first use *)
  print_endline "optimized IR (IRONMAN calls):";
  print_endline (Ir.Printer.program_to_annotated_string optimized.ir);

  (* 3. simulate both and compare times (the engines are minted around
     the cached plans; only mutable per-run state is fresh) *)
  let rb = Run.Cache.run cache base_spec
  and ro = Run.Cache.run cache opt_spec in
  Printf.printf "\nsimulated time: baseline=%.3f ms optimized=%.3f ms (%.0f%%)\n"
    (rb.Sim.Engine.time *. 1e3) (ro.Sim.Engine.time *. 1e3)
    (100. *. ro.Sim.Engine.time /. rb.Sim.Engine.time);
  Printf.printf "dynamic counts: baseline=%d optimized=%d\n"
    (Sim.Stats.dynamic_count rb.Sim.Engine.stats)
    (Sim.Stats.dynamic_count ro.Sim.Engine.stats);

  (* 4. verify the optimized distributed run against the oracle, on the
     plans the cache already holds for its spec *)
  let _ = verify ~cache opt_spec in
  print_endline "oracle check: PASS (distributed result == sequential result)"
