(** Directed tests of the wire-plan communication runtime: steady-state
    communication allocates no minor words, the staging-buffer pool
    recycles under ping-pong traffic, and send-time snapshots stay sound
    when the receiver lags the sender by many repeat iterations. *)

open Commopt

let t3d = Machine.T3d.machine

let compile_flat ?defines src =
  let prog = Zpl.Check.compile_string ?defines src in
  Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum prog)

let run ?(lib = Machine.T3d.pvm) ~pr ~pc flat =
  Sim.Engine.run
    (Sim.Engine.of_plans (Sim.Engine.plan ~machine:t3d ~lib ~pr ~pc flat))

(* ------------------------------------------------------------------ *)
(* Zero-allocation steady state                                        *)
(* ------------------------------------------------------------------ *)

(** Minor words allocated by one full build+run of the two-node
    synthetic at [iters] iterations. *)
let minor_words_of ~iters src =
  let defines = Programs.Synthetic.defines ~doubles:64 ~busyn:32 ~iters in
  let flat = compile_flat ~defines src in
  let engine =
    Sim.Engine.of_plans
      (Sim.Engine.plan ~machine:t3d ~lib:Machine.T3d.pvm ~pr:1 ~pc:2 flat)
  in
  let before = Gc.minor_words () in
  ignore (Sim.Engine.run engine);
  Gc.minor_words () -. before

(** Differential allocation measurement: the one-off costs (plan
    compilation, kernel caches, pool warm-up) are identical at [lo] and
    [hi] iterations, so the [hi - lo] delta isolates the per-iteration
    cost; subtracting the communication-free busy variant's delta then
    isolates the per-iteration cost of communication alone. That must be
    (essentially) zero: no payload lists, no hashed mailbox lookups, no
    boxed floats on the activation path. *)
let test_zero_alloc () =
  let lo = 50 and hi = 250 in
  (* Warm both program shapes once so shared lazy state (alcotest
     buffers, format machinery) is paid before measuring. *)
  ignore (minor_words_of ~iters:2 Programs.Synthetic.source);
  ignore (minor_words_of ~iters:2 Programs.Synthetic.busy_source);
  let comm =
    minor_words_of ~iters:hi Programs.Synthetic.source
    -. minor_words_of ~iters:lo Programs.Synthetic.source
  and busy =
    minor_words_of ~iters:hi Programs.Synthetic.busy_source
    -. minor_words_of ~iters:lo Programs.Synthetic.busy_source
  in
  let per_iter = (comm -. busy) /. float_of_int (hi - lo) in
  (* Each iteration is 2 transfers x 2 sides x 2 procs = 8 comm
     activations plus 2 packed messages; 8 words/iteration of slack is
     <= 1 word per activation, i.e. no per-message allocation at all. *)
  Alcotest.(check bool)
    (Printf.sprintf
       "steady-state comm allocates %.2f minor words/iteration (want <= 8)"
       per_iter)
    true
    (per_iter <= 8.0)

(* ------------------------------------------------------------------ *)
(* Pool recycling under ping-pong traffic                              *)
(* ------------------------------------------------------------------ *)

let test_pool_recycles () =
  let iters = 60 in
  let defines = Programs.Synthetic.defines ~doubles:16 ~busyn:16 ~iters in
  let flat = compile_flat ~defines Programs.Synthetic.source in
  let res = run ~pr:1 ~pc:2 flat in
  let fresh, reused = Sim.Engine.pool_counts res.Sim.Engine.engine in
  let total = Sim.Stats.total_messages res.Sim.Engine.stats in
  Alcotest.(check bool) "messages flowed" true (total >= 2 * iters);
  Alcotest.(check int) "every send acquired a staging buffer" total
    (fresh + reused);
  (* Ping-pong keeps the two processors in lockstep, so the in-flight
     high-water — and with it the number of buffers ever allocated — is
     a small constant independent of the iteration count. *)
  Alcotest.(check bool)
    (Printf.sprintf "fresh buffers bounded (%d fresh for %d messages)" fresh
       total)
    true
    (fresh <= 8);
  Alcotest.(check bool) "the pool actually recycled" true (reused > total / 2)

(* ------------------------------------------------------------------ *)
(* Snapshot soundness when the receiver lags the sender                *)
(* ------------------------------------------------------------------ *)

(** One-directional traffic: only processor 1 sends (the [B@east]
    boundary), so under the serial drain processor 0 blocks on its first
    DN wait while processor 1 — which never waits on anything — runs the
    {e entire} program, depositing one message per iteration into
    processor 0's mailbox. [B] is rewritten every iteration, so each
    in-flight message must carry the values [B] held at its own send
    time: if staging buffers aliased live stores (or were recycled while
    still in flight), the lagging receiver would read late values and
    diverge from the sequential oracle. *)
let lag_src =
  {|
constant m     = 16;
constant iters = 40;

region Strip = [1..m, 1..2];
direction east = [0, 1];

var A, B : [0..m+1, 0..3] float;
var t : int;

procedure main();
begin
  [0..m+1, 0..3] A := Index1 * 0.25;
  [0..m+1, 0..3] B := Index2 + Index1 * 0.5;
  for t := 1 to iters do
    [Strip] A := A * 0.5 + B@east * 0.25;
    [Strip] B := B * 1.0001 + 0.0001;
  end;
end;
|}

let test_snapshot_under_lag () =
  let iters = 40 in
  let c = compile lag_src in
  let res = run ~pr:1 ~pc:2 c.flat in
  (match first_divergence ~tolerance:0.0 c res (run_oracle c) with
  | None -> ()
  | Some d ->
      Alcotest.failf "lagging receiver diverges from the oracle: %a"
        pp_divergence d);
  let fresh, reused = Sim.Engine.pool_counts res.Sim.Engine.engine in
  let total = Sim.Stats.total_messages res.Sim.Engine.stats in
  Alcotest.(check int) "every send acquired a staging buffer" total
    (fresh + reused);
  (* The stress actually happened: the sender lapped the receiver by the
     whole loop, so the pool's high-water — all-fresh acquisitions — is
     one buffer per iteration, none ever recycled. *)
  Alcotest.(check int) "sender ran the whole loop ahead" iters fresh;
  Alcotest.(check int) "no buffer was recycled while in flight" 0 reused

let () =
  Alcotest.run "comm runtime"
    [ ( "wire",
        [ Alcotest.test_case "zero-allocation steady state" `Quick
            test_zero_alloc;
          Alcotest.test_case "pool recycles under ping-pong" `Quick
            test_pool_recycles;
          Alcotest.test_case "snapshots sound under receiver lag" `Quick
            test_snapshot_under_lag ] ) ]
