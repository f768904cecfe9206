(** Simulator engine tests: data movement, counters, determinism,
    blocking semantics per library model, collective reductions, and the
    safety rails (shift-too-wide rejection, instruction limit). *)

open Commopt

let stencil_src =
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

let make_engine ?(config = Opt.Config.pl_cum) ?(lib = Machine.T3d.pvm)
    ?(pr = 2) ?(pc = 2) ?limit ?fuse ?domains src =
  let prog = Zpl.Check.compile_string src in
  let ir = Opt.Passes.compile config prog in
  Sim.Engine.of_plans ?limit ?domains
    (Sim.Engine.plan ?fuse ~machine:Machine.T3d.machine ~lib ~pr ~pc
       (Ir.Flat.flatten ir))

let test_counts_and_time () =
  let res = Sim.Engine.run (make_engine stencil_src) in
  let st = res.Sim.Engine.stats in
  (* 4 directional transfers x 3 iterations, but every proc on a 2x2 mesh
     is a corner with only two inbound neighbors *)
  Alcotest.(check int) "dynamic count" 6 (Sim.Stats.dynamic_count st);
  Alcotest.(check bool) "time positive" true (res.Sim.Engine.time > 0.0);
  Alcotest.(check bool) "messages flowed" true (Sim.Stats.total_messages st > 0);
  Alcotest.(check int) "reduces joined" 3 st.Sim.Stats.procs.(0).Sim.Stats.reduces

let test_determinism () =
  let r1 = Sim.Engine.run (make_engine stencil_src) in
  let r2 = Sim.Engine.run (make_engine stencil_src) in
  Alcotest.(check (float 0.)) "same makespan" r1.Sim.Engine.time r2.Sim.Engine.time;
  Alcotest.(check int) "same instructions"
    r1.Sim.Engine.stats.Sim.Stats.instructions
    r2.Sim.Engine.stats.Sim.Stats.instructions

let test_gather_matches_oracle () =
  let prog = Zpl.Check.compile_string stencil_src in
  let oracle = Runtime.Seqexec.run prog in
  let res = Sim.Engine.run (make_engine stencil_src) in
  let g = Sim.Engine.gather res.Sim.Engine.engine 0 in
  let sq = oracle.Runtime.Seqexec.stores.(0) in
  Zpl.Region.iter (Zpl.Prog.array_info prog 0).a_region (fun p ->
      let a = Runtime.Store.get sq p and b = Runtime.Store.get g p in
      if a <> b then Alcotest.failf "cell differs: %g vs %g" a b)

let test_replicated_scalars_agree () =
  let res = Sim.Engine.run (make_engine stencil_src) in
  let env0 = Sim.Engine.final_env res.Sim.Engine.engine in
  Array.iter
    (fun (p : Sim.Engine.proc) ->
      Array.iteri
        (fun i v ->
          if not (Runtime.Values.equal_value v env0.(i)) then
            Alcotest.fail "scalar env diverged between processors")
        (Sim.Engine.proc_env p))
    (Sim.Engine.procs res.Sim.Engine.engine)

let test_library_overheads_ordered () =
  let time lib = (Sim.Engine.run (make_engine ~lib stencil_src)).Sim.Engine.time in
  let csend = time Machine.Paragon.nx_sync in
  let hsend = time Machine.Paragon.nx_callback in
  Alcotest.(check bool) "callback primitives are heavier" true (hsend > csend)

let test_baseline_slower_than_optimized () =
  let time config =
    (Sim.Engine.run (make_engine ~config stencil_src)).Sim.Engine.time
  in
  Alcotest.(check bool) "optimization helps" true
    (time Opt.Config.pl_cum <= time Opt.Config.baseline)

let test_rejects_wide_shift () =
  (* shift magnitude 3 > block extent 2 on a 4x4 mesh over 8 cells *)
  let src =
    {|
constant n = 8;
region R = [4..n, 1..n];
var A, B : [1..n, 1..n] float;
procedure main(); begin [R] B := A@[-3, 0]; end;
|}
  in
  Alcotest.(check bool) "raises" true
    (match make_engine ~pr:4 ~pc:4 src with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_instruction_limit () =
  (* the limit is per processor: each of the 4 procs runs well over 10
     instructions on this program, so a budget of 10 must trip *)
  Alcotest.(check bool) "limit enforced" true
    (match Sim.Engine.run (make_engine ~limit:10 stencil_src) with
    | _ -> false
    | exception Sim.Engine.Instruction_limit _ -> true)

let test_fusion_engages_on_tomcatv () =
  (* TOMCATV's metric-terms block (XX/YX/XY/YY, then AA/BB/CC) is the
     fusion showcase: groups must actually form, and the fused run must
     match the unfused one exactly — makespan, counters and data *)
  let p = Programs.Suite.compile ~scale:`Test Programs.Suite.tomcatv in
  let flat = Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum p) in
  let mk ~fuse =
    Sim.Engine.of_plans
      (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm
         ~pr:2 ~pc:2 ~fuse flat)
  in
  let fused_eng = mk ~fuse:true in
  Alcotest.(check bool) "groups formed" true
    (Sim.Engine.fused_group_count fused_eng > 0);
  Alcotest.(check int) "fusion off means no groups" 0
    (Sim.Engine.fused_group_count (mk ~fuse:false));
  let fused = Sim.Engine.run fused_eng in
  let plain = Sim.Engine.run (mk ~fuse:false) in
  Alcotest.(check (float 0.)) "same makespan" plain.Sim.Engine.time
    fused.Sim.Engine.time;
  Alcotest.(check int) "same instructions"
    plain.Sim.Engine.stats.Sim.Stats.instructions
    fused.Sim.Engine.stats.Sim.Stats.instructions;
  Array.iteri
    (fun aid _ ->
      let a = Runtime.Store.to_array (Sim.Engine.gather plain.Sim.Engine.engine aid) in
      let b = Runtime.Store.to_array (Sim.Engine.gather fused.Sim.Engine.engine aid) in
      if a <> b then Alcotest.failf "array %d differs under fusion" aid)
    p.Zpl.Prog.arrays

let test_parallel_drain_matches_serial () =
  let run domains = Sim.Engine.run (make_engine ~domains stencil_src) in
  let serial = run 1 and par = run 4 in
  Alcotest.(check (float 0.)) "same makespan" serial.Sim.Engine.time
    par.Sim.Engine.time;
  Alcotest.(check int) "same instructions"
    serial.Sim.Engine.stats.Sim.Stats.instructions
    par.Sim.Engine.stats.Sim.Stats.instructions;
  Alcotest.(check int) "same messages"
    (Sim.Stats.total_messages serial.Sim.Engine.stats)
    (Sim.Stats.total_messages par.Sim.Engine.stats)

let test_wavefront_serializes () =
  (* a row-sweep over a distributed dimension must take longer than the
     same arithmetic without the cross-row dependence *)
  let sweep =
    {|
constant n = 16;
region R = [1..n, 1..n];
var A : [0..n+1, 0..n+1] float;
var i : int;
direction no = [-1, 0];
procedure main();
begin
  [0..n+1, 0..n+1] A := 1.0;
  for i := 2 to n do
    [i..i, 1..n] A := A@no * 0.5 + 1.0;
  end;
end;
|}
  in
  let independent =
    {|
constant n = 16;
region R = [1..n, 1..n];
var A : [0..n+1, 0..n+1] float;
var i : int;
procedure main();
begin
  [0..n+1, 0..n+1] A := 1.0;
  for i := 2 to n do
    [i..i, 1..n] A := A * 0.5 + 1.0;
  end;
end;
|}
  in
  let t src = (Sim.Engine.run (make_engine ~pr:4 ~pc:1 src)).Sim.Engine.time in
  Alcotest.(check bool) "dependence chain costs time" true
    (t sweep > t independent *. 1.5)

let test_shmem_rendezvous_couples () =
  (* under SHMEM the wavefront pays the per-instance rendezvous; PVM's
     buffered sends do not *)
  let sweep =
    {|
constant n = 24;
var A : [0..n+1, 0..n+1] float;
var i : int;
direction no = [-1, 0];
procedure main();
begin
  [0..n+1, 0..n+1] A := 1.0;
  for i := 2 to n do
    [i..i, 1..n] A := A@no * 0.5 + 1.0;
  end;
end;
|}
  in
  let t lib = (Sim.Engine.run (make_engine ~lib ~pr:4 ~pc:1 sweep)).Sim.Engine.time in
  Alcotest.(check bool) "shmem slower on serialized code" true
    (t Machine.T3d.shmem > t Machine.T3d.pvm)

let test_paragon_machine_is_slower () =
  let t machine =
    let prog = Zpl.Check.compile_string stencil_src in
    let ir = Opt.Passes.compile Opt.Config.pl_cum prog in
    let lib =
      if machine == Machine.Paragon.machine then Machine.Paragon.nx_sync
      else Machine.T3d.pvm
    in
    (Sim.Engine.run
       (Sim.Engine.of_plans
          (Sim.Engine.plan ~machine ~lib ~pr:2 ~pc:2 (Ir.Flat.flatten ir))))
      .Sim.Engine.time
  in
  Alcotest.(check bool) "50 MHz Paragon slower than 150 MHz T3D" true
    (t Machine.Paragon.machine > t Machine.T3d.machine)

(* ------------------------------------------------------------------ *)
(* Kernel programs: one per geometry class                             *)
(* ------------------------------------------------------------------ *)

(* Distinct vectors of (rank, strides) over every array of a minted
   engine's real stores: the geometry classes the kernel compiler must
   tell apart. *)
let geometries (eng : Sim.Engine.t) =
  Array.to_list (Sim.Engine.procs eng)
  |> List.map (fun p ->
         Array.map
           (fun s -> Array.init (Runtime.Store.rank s) (Runtime.Store.stride s))
           (Sim.Engine.proc_stores p))
  |> List.sort_uniq compare |> List.length

let test_even_mesh_classes () =
  let p = Programs.Suite.compile ~scale:`Bench Programs.Suite.tomcatv in
  let flat = Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum p) in
  let plans =
    Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm ~pr:8
      ~pc:8 flat
  in
  let k = Sim.Engine.kernel_classes plans in
  Alcotest.(check bool)
    (Printf.sprintf "%d kernel programs for 64 ranks (at most 9)" k)
    true (k <= 9);
  Alcotest.(check int) "one shared program per geometry class"
    (geometries (Sim.Engine.of_plans plans))
    k

(* S lives in rows 1..2 only, so on meshes that split rows, ranks below
   the first mesh row own nothing of S (or T) and form their own class. *)
let partial_src =
  {|
constant n = 8;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction e = [0, 1]; direction w = [0, -1];
direction no = [-1, 0]; direction s = [1, 0];
var A, B : [BigR] float;
var S, T : [1..2, 0..n+1] float;
var total : float;
var t : int;
procedure main();
begin
  [BigR] A := Index1 + 10.0 * Index2;
  for t := 1 to 2 do
    [R] B := 0.25 * (A@e + A@w + A@no + A@s);
    [1..2, 1..n] S := A@e - A@w + B;
    [1..2, 1..n] T := S@e + S@w;
    [1..1, 1..n] T := T + S@s;
    [1..2, 1..n] total := +<< T;
    [R] A := B;
  end;
end;
|}

let bits_equal name (a : float array) (b : float array) =
  Alcotest.(check bool) name true
    (Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b)

(* One plan set, two engines minted from it: both runs must agree bit
   for bit, and with the sequential oracle on every array cell. Returns
   the plan set's kernel class count and the first engine. *)
let check_shared_classes name (c : compiled) ~lib ~pr ~pc =
  let plans =
    Sim.Engine.plan ~machine:Machine.T3d.machine ~lib ~pr ~pc c.flat
  in
  let first = Sim.Engine.run (Sim.Engine.of_plans plans) in
  let again = Sim.Engine.run (Sim.Engine.of_plans plans) in
  Alcotest.(check int64) (name ^ ": makespan bits")
    (Int64.bits_of_float first.Sim.Engine.time)
    (Int64.bits_of_float again.Sim.Engine.time);
  Alcotest.(check int) (name ^ ": dynamic count")
    (Sim.Stats.dynamic_count first.Sim.Engine.stats)
    (Sim.Stats.dynamic_count again.Sim.Engine.stats);
  Array.iteri
    (fun aid (info : Zpl.Prog.array_info) ->
      let gathered (r : Sim.Engine.result) =
        Runtime.Store.to_array (Sim.Engine.gather r.Sim.Engine.engine aid)
      in
      bits_equal
        (Printf.sprintf "%s: %s equal across mints" name info.a_name)
        (gathered first) (gathered again))
    c.prog.Zpl.Prog.arrays;
  (match first_divergence ~tolerance:0.0 c first (run_oracle c) with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %a" name pp_divergence d);
  let k = Sim.Engine.kernel_classes plans in
  Alcotest.(check int) (name ^ ": one program per geometry class")
    (geometries first.Sim.Engine.engine)
    k;
  (k, first.Sim.Engine.engine)

let uneven_meshes = [ (3, 3); (1, 5); (5, 1) ]

let test_uneven_mesh_classes () =
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      List.iter
        (fun (label, config, lib) ->
          let c =
            compile ~config ~defines:b.Programs.Bench_def.test_defines
              b.Programs.Bench_def.source
          in
          List.iter
            (fun (pr, pc) ->
              let name =
                Printf.sprintf "%s/%s/%dx%d" b.Programs.Bench_def.name label pr
                  pc
              in
              let k, _ = check_shared_classes name c ~lib ~pr ~pc in
              if b == Programs.Suite.tomcatv && pr = 3 then
                Alcotest.(check bool) (name ^ ": several classes") true (k > 1))
            uneven_meshes)
        Report.Experiment.paper_rows)
    Programs.Suite.paper_benchmarks

let test_empty_owner_class () =
  let c = compile partial_src in
  List.iter
    (fun (pr, pc) ->
      let name = Printf.sprintf "partial/%dx%d" pr pc in
      let k, eng = check_shared_classes name c ~lib:Machine.T3d.pvm ~pr ~pc in
      if pr > 1 then begin
        let owns_no_s p =
          Zpl.Region.is_empty
            (Runtime.Store.owned (Sim.Engine.proc_stores p).(2))
        in
        Alcotest.(check bool) (name ^ ": some rank owns nothing of S") true
          (Array.exists owns_no_s (Sim.Engine.procs eng));
        Alcotest.(check bool) (name ^ ": several classes") true (k > 1)
      end)
    uneven_meshes

let () =
  Alcotest.run "engine"
    [ ( "execution",
        [ Alcotest.test_case "counts & time" `Quick test_counts_and_time;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "gather == oracle" `Quick test_gather_matches_oracle;
          Alcotest.test_case "replicated scalars" `Quick test_replicated_scalars_agree;
          Alcotest.test_case "fusion engages (tomcatv)" `Quick
            test_fusion_engages_on_tomcatv;
          Alcotest.test_case "parallel drain == serial" `Quick
            test_parallel_drain_matches_serial ] );
      ( "geometry classes",
        [ Alcotest.test_case "even 8x8 mesh shares programs" `Quick
            test_even_mesh_classes;
          Alcotest.test_case "uneven meshes == oracle and mint" `Quick
            test_uneven_mesh_classes;
          Alcotest.test_case "rank owning nothing of an array" `Quick
            test_empty_owner_class ] );
      ( "models",
        [ Alcotest.test_case "library ordering" `Quick test_library_overheads_ordered;
          Alcotest.test_case "optimization helps" `Quick test_baseline_slower_than_optimized;
          Alcotest.test_case "wavefront serializes" `Quick test_wavefront_serializes;
          Alcotest.test_case "shmem rendezvous" `Quick test_shmem_rendezvous_couples;
          Alcotest.test_case "machine speeds" `Quick test_paragon_machine_is_slower ] );
      ( "guards",
        [ Alcotest.test_case "wide shift rejected" `Quick test_rejects_wide_shift;
          Alcotest.test_case "instruction limit" `Quick test_instruction_limit ] ) ]
