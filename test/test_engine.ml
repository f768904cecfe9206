(** Simulator engine tests: data movement, counters, determinism,
    blocking semantics per library model, collective reductions, and the
    safety rails (shift-too-wide rejection, the work budget). *)

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
    ?(pr = 2) ?(pc = 2) ?limit src =
  let prog = Zpl.Check.compile_string src in
  let ir = Opt.Passes.compile config prog in
  Sim.Engine.of_plans ?limit
    (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib ~pr ~pc
       (Ir.Flat.flatten ir))

(** A spec's compiled artifacts and its engine plans, from one cache
    entry. *)
let compiled_plans spec =
  let cache = Run.Cache.create () in
  (of_spec ~cache spec, (Run.Cache.artifact cache spec).Run.Spec.a_plans)

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
        (Sim.Engine.proc_env res.Sim.Engine.engine p))
    (Sim.Engine.procs res.Sim.Engine.engine)

(* A [for] bound is read once, at loop entry, in both executors: a body
   that lowers [m] must not cut the engine's loop short. *)
let test_for_bound_read_once () =
  let src =
    {|
region R = [1..4, 1..4];
var A : [R] float;
var m : int;
procedure main();
begin
  [R] A := 0.0;
  m := 3;
  for k := 1 to m do
    m := 1;
    [R] A := A + 1.0;
  end;
end;
|}
  in
  let prog = Zpl.Check.compile_string src in
  let oracle = Runtime.Seqexec.run prog in
  let res = Sim.Engine.run (make_engine src) in
  let g = Sim.Engine.gather res.Sim.Engine.engine 0 in
  Zpl.Region.iter (Zpl.Prog.array_info prog 0).a_region (fun p ->
      Alcotest.(check (float 0.)) "engine cell == oracle cell"
        (Runtime.Store.get oracle.Runtime.Seqexec.stores.(0) p)
        (Runtime.Store.get g p));
  Alcotest.(check (float 0.)) "engine ran three trips" 3.0
    (Runtime.Store.get g [| 1; 1 |])

(* pl hoists SR(A, east) above [s := +<< C] and leaves its DN below,
   so on SHMEM a rank that has arrived at the reduction is woken by a
   rendezvous token while it waits there. It must not arrive a second
   time: that would charge its partial twice and make the next
   reduction fold a stale partial, which B's final values expose. *)
let reduce_window_src =
  {|
constant n = 12;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction e = [0, 1]; direction w = [0, -1];
var A, B, C, D : [BigR] float;
var s, u : float;
procedure main();
begin
  [BigR] A := Index1 + 10.0 * Index2;
  [BigR] C := Index1;
  [R] B := A@w;
  [R] C := B@w;
  [R] s := +<< C;
  [R] D := A@e + s;
  [R] u := max<< D;
  [R] B := D + u;
end;
|}

let test_reduction_inside_transfer () =
  let spec =
    Run.Spec.(default reduce_window_src |> with_lib Machine.T3d.shmem)
  in
  let c = of_spec spec in
  let oracle = run_oracle c in
  List.iter
    (fun (pr, pc) ->
      let name = Printf.sprintf "%dx%d shmem" pr pc in
      let res =
        Run.Cache.run (Run.Cache.create ()) (Run.Spec.with_mesh pr pc spec)
      in
      (match first_divergence ~tolerance:0.0 c res oracle with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %a" name pp_divergence d);
      Array.iter
        (fun (pp : Sim.Stats.per_proc) ->
          Alcotest.(check int) (name ^ ": reductions joined") 2
            pp.Sim.Stats.reduces)
        res.Sim.Engine.stats.Sim.Stats.procs)
    [ (1, 4); (2, 3); (4, 4) ]

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
  (* the work budget covers the 392 cells the 2x2 engine allocates, but
     not the run's 956 units of work (280 instructions and 676 cells over
     all processors), so a budget of 500 mints and then trips *)
  Alcotest.(check bool) "limit enforced" true
    (match Sim.Engine.run (make_engine ~limit:500 stencil_src) with
    | _ -> false
    | exception Sim.Engine.Instruction_limit _ -> true)

(* Deadlock diagnostics: dropping the first SR (or, under SHMEM, the
   first DR) of one transfer from 2x2 Jacobi's flat ops must end in
   [Deadlock], naming the stuck processor, the transfer and the partners
   whose data or tokens it waits for — the same message for a fringe
   transfer and for synthesized collective rounds, which run as ordinary
   sides. *)
let jacobi_flat (machine, lib) collective =
  let b = Option.get (Programs.Suite.find "jacobi") in
  let spec =
    Run.Spec.(
      default b.Programs.Bench_def.source
      |> with_defines b.Programs.Bench_def.test_defines
      |> with_collective collective |> with_target machine lib
      |> with_mesh 2 2)
  in
  (Run.Spec.build spec).Run.Spec.a_flat

(** [flat] with its first [call] of a transfer satisfying [pick]
    replaced by a jump to the next op. *)
let drop_first call (flat : Ir.Flat.t) pick =
  let ops = Array.copy flat.Ir.Flat.ops in
  let rec find i =
    match ops.(i) with
    | Ir.Flat.FComm (c, x) when c = call && pick flat.Ir.Flat.transfers.(x) ->
        i
    | _ -> find (i + 1)
  in
  let i = find 0 in
  ops.(i) <- Ir.Flat.FJump (i + 1);
  { flat with Ir.Flat.ops }

let test_deadlock_message () =
  let fringe (x : Ir.Transfer.t) = not (Ir.Transfer.is_coll x) in
  let west x = fringe x && snd x.Ir.Transfer.off < 0 in
  let pvm = (Machine.T3d.machine, Machine.T3d.pvm)
  and shmem = (Machine.T3d.machine, Machine.T3d.shmem) in
  List.iter
    (fun (label, ((machine, lib) as target), collective, call, pick, want) ->
      let flat = drop_first call (jacobi_flat target collective) pick in
      let eng =
        Sim.Engine.of_plans (Sim.Engine.plan ~machine ~lib ~pr:2 ~pc:2 flat)
      in
      match Sim.Engine.run eng with
      | _ -> Alcotest.failf "%s: dropped call ran to completion" label
      | exception Sim.Engine.Deadlock msg ->
          Alcotest.(check string) label want msg)
    [ ("fringe", pvm, Opt.Config.Opaque, Ir.Instr.SR, fringe,
        "proc 0 waiting for data of transfer x0:A@east from 1");
      (* proc 0 owns the west edge, so it expects nothing of a westward
         shift and runs on into the next reduction *)
      ("fringe, proc 0 in the reduction", pvm, Opt.Config.Opaque,
        Ir.Instr.SR, west, "proc 0 waiting in the reduction at pc 19");
      ("ring round", pvm, Opt.Config.Forced Ir.Coll.Ring, Ir.Instr.SR,
        Ir.Transfer.is_coll,
        "proc 0 waiting for data of transfer x9:ring:bcast[2/6]#s0 from 1");
      ("recdouble round", pvm, Opt.Config.Forced Ir.Coll.Recdouble,
        Ir.Instr.SR, Ir.Transfer.is_coll,
        "proc 0 waiting for data of transfer x4:recdouble:reduce[0/2]#s0 \
         from 1");
      (* SHMEM sends only once the receiver's DR token arrived: proc 1
         never posts its westward DR, so proc 0 waits in its SR *)
      ("rendezvous token", shmem, Opt.Config.Opaque, Ir.Instr.DR, west,
        "proc 0 waiting for tokens of transfer x1:A@west from 1") ]

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
let check_shared_classes name spec =
  let c, plans = compiled_plans spec in
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
          let spec =
            Run.Spec.(
              default b.Programs.Bench_def.source
              |> with_defines b.Programs.Bench_def.test_defines
              |> with_config config |> with_lib lib)
          in
          List.iter
            (fun (pr, pc) ->
              let name =
                Printf.sprintf "%s/%s/%dx%d" b.Programs.Bench_def.name label pr
                  pc
              in
              let k, _ =
                check_shared_classes name (Run.Spec.with_mesh pr pc spec)
              in
              if b == Programs.Suite.tomcatv && pr = 3 then
                Alcotest.(check bool) (name ^ ": several classes") true (k > 1))
            uneven_meshes)
        Report.Experiment.paper_rows)
    Programs.Suite.paper_benchmarks

let test_empty_owner_class () =
  List.iter
    (fun (pr, pc) ->
      let name = Printf.sprintf "partial/%dx%d" pr pc in
      let k, eng =
        check_shared_classes name
          Run.Spec.(default partial_src |> with_mesh pr pc)
      in
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

(* ------------------------------------------------------------------ *)
(* In-place region clipping: edge cases against the oracle             *)
(* ------------------------------------------------------------------ *)

(* Loop-variant regions that are empty on some ranks and not on others:
   a row sweep with a shifted read, a rank-3 statement whose dims 0-1
   follow the loop, one whose dim 2 does (dim 2 is never cut by the
   partition box), and a loop-variant reduction (max<<, exact in any
   combine order) that feeds later cells. n = 11 puts 13 rows of space
   on 3 mesh rows: blocks of 5, 4 and 4. *)
let clip_src =
  {|
constant n = 11;
constant m = 4;
var A, B : [0..n+1, 0..n+1] float;
var P, Q : [1..n, 1..n, 1..m] float;
var top : float;
var i, k : int;
direction no = [-1, 0];
procedure main();
begin
  [0..n+1, 0..n+1] A := Index1 + 0.5 * Index2;
  [1..n, 1..n, 1..m] Q := Index1 * 0.25 + Index2 - Index3;
  for i := 2 to n do
    [i..i, 1..n] A := A@no * 0.5 + 1.0;
    [i..i, 2..i, 1..m] P := Q + Index3;
    for k := 1 to m do
      [1..n, i..i, k..k] Q := P * 0.5 + Q;
    end;
    [i..i, 1..n, 2..m] top := max<< Q;
    [i..i, 1..n] B := A + top;
  end;
end;
|}

let test_clip_vs_oracle () =
  let spec = Run.Spec.default clip_src in
  let c = of_spec spec in
  let oracle = run_oracle c in
  List.iter
    (fun (pr, pc) ->
      let name = Printf.sprintf "clip %dx%d" pr pc in
      let res =
        Run.Cache.run (Run.Cache.create ()) (Run.Spec.with_mesh pr pc spec)
      in
      (match first_divergence ~tolerance:0.0 c res oracle with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %a" name pp_divergence d);
      (* the sweeps really are empty on some ranks: those update
         fewer cells than the ranks owning the rows they visit *)
      let cells =
        Array.map
          (fun (pp : Sim.Stats.per_proc) -> pp.Sim.Stats.cells)
          res.Sim.Engine.stats.Sim.Stats.procs
      in
      Alcotest.(check bool) (name ^ ": uneven work") true
        (pr = 1 || Array.exists (fun x -> x <> cells.(0)) cells))
    [ (3, 3); (1, 1); (4, 2); (2, 4) ];
  let layout = Runtime.Layout.for_program ~pr:3 ~pc:3 c.prog in
  Alcotest.(check (array int)) "3x3 block heights are uneven" [| 5; 4; 4 |]
    (Array.map (fun (lo, hi) -> hi - lo + 1) layout.Runtime.Layout.row_cuts)

(* At i = 5 the row [5..5, 1..8] reads S@no, which lies inside S, but
   the row itself lies outside S's declared rows 1..4, so the
   statement-region rule refuses it. The static checker cannot see it
   (the region follows the loop); every executor stops at the same
   step with the same positioned message, whatever the mesh. On 4x1
   the read once failed on rank 2 alone, which owns nothing of S, with
   a message that named no position, while 1x1 ran clean. *)
let past_alloc_src =
  {|
constant n = 8;
var B : [1..n, 1..n] float;
var S : [1..4, 1..n] float;
var i : int;
direction no = [-1, 0];
procedure main();
begin
  [1..4, 1..n] S := Index1 + Index2;
  for i := 2 to n do
    [i..i, 1..n] B := S@no * 2.0;
  end;
end;
|}

let test_read_past_alloc () =
  let want =
    Error
      "11:5: statement region [5..5, 1..8] reads \"S\" but lies outside \
       its declared region [1..4, 1..8]"
  in
  List.iter
    (fun (pr, pc) ->
      let name = Printf.sprintf "engine %dx%d" pr pc in
      let c, plans =
        compiled_plans Run.Spec.(default past_alloc_src |> with_mesh pr pc)
      in
      let eng = Sim.Engine.of_plans plans in
      Alcotest.(check (result unit string)) name want
        (Zpl.Loc.guard (fun () -> ignore (Sim.Engine.run eng)));
      let i =
        List.find_map
          (function Zpl.Prog.For f -> Some f.var | _ -> None)
          c.prog.Zpl.Prog.body
        |> Option.get
      in
      let loop_var p =
        match (Sim.Engine.proc_env eng p).(i) with
        | Runtime.Values.VInt v -> v
        | _ -> Alcotest.fail "loop variable is not an int"
      in
      (* rank 0 stops at i = 5: the loop head and the transfer of S ran
         four times, the statement three (rows 2..4) *)
      Alcotest.(check int) (name ^ ": rank 0 stops at i = 5") 5
        (loop_var (Sim.Engine.procs eng).(0));
      Alcotest.(check (array int)) (name ^ ": ops completed on rank 0")
        [| 1; 1; 4; 4; 4; 4; 4; 4; 3; 3; 0 |]
        (Sim.Engine.op_counts eng))
    [ (1, 1); (2, 2); (4, 1) ];
  let prog = Zpl.Check.compile_string past_alloc_src in
  List.iter
    (fun row_path ->
      Alcotest.(check (result unit string))
        (Printf.sprintf "oracle, row path %b" row_path)
        want
        (Zpl.Loc.guard (fun () ->
             ignore (Runtime.Seqexec.run ~row_path prog))))
    [ true; false ]

(* Point every region-bound variable at scalar [into]: a float scalar in
   a region bound, which the checker would refuse, built directly. Both
   executors reject it when they compile the program, before running
   anything: bounds are read from int slots. *)
let rec swap_bound_var ~into (s : Zpl.Prog.stmt) : Zpl.Prog.stmt =
  let bound (b : Zpl.Prog.bound) =
    if b.Zpl.Prog.bvar = None then b else { b with Zpl.Prog.bvar = Some into }
  in
  let region = Array.map (fun (lo, hi) -> (bound lo, bound hi)) in
  let body = List.map (swap_bound_var ~into) in
  match s with
  | Zpl.Prog.AssignA a -> Zpl.Prog.AssignA { a with region = region a.region }
  | Zpl.Prog.ReduceS r ->
      Zpl.Prog.ReduceS { r with r_region = region r.r_region }
  | Zpl.Prog.For f -> Zpl.Prog.For { f with body = body f.body }
  | Zpl.Prog.Repeat (b, c) -> Zpl.Prog.Repeat (body b, c)
  | Zpl.Prog.If (c, t, e) -> Zpl.Prog.If (c, body t, body e)
  | Zpl.Prog.AssignS _ -> s

let test_float_region_bound () =
  let prog =
    Zpl.Check.compile_string
      {|
constant n = 8;
var A, B : [1..n, 1..n] float;
var i : int;
var x : float;
procedure main();
begin
  x := 2.5;
  for i := 2 to n do
    [i..i, 1..n] B := A + 1.0;
  end;
end;
|}
  in
  let x =
    match Zpl.Prog.find_scalar prog "x" with
    | Some s -> s.Zpl.Prog.s_id
    | None -> Alcotest.fail "no scalar x"
  in
  let prog =
    { prog with
      Zpl.Prog.body = List.map (swap_bound_var ~into:x) prog.body }
  in
  let want =
    Invalid_argument
      (Printf.sprintf "Values: region bound reads non-int scalar %d" x)
  in
  Alcotest.check_raises "oracle" want (fun () ->
      ignore (Runtime.Seqexec.run prog));
  List.iter
    (fun (pr, pc) ->
      let flat =
        Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum prog)
      in
      Alcotest.check_raises (Printf.sprintf "engine %dx%d" pr pc) want
        (fun () ->
          ignore
            (Sim.Engine.run
               (Sim.Engine.of_plans
                  (Sim.Engine.plan ~machine:Machine.T3d.machine
                     ~lib:Machine.T3d.pvm ~pr ~pc flat)))))
    [ (1, 1); (2, 2); (3, 3) ]

(* ------------------------------------------------------------------ *)
(* Allocation gate for kernel dispatch                                 *)
(* ------------------------------------------------------------------ *)

(** Minor words allocated by one [Engine.run] of TOMCATV at n = 32 on a
    4x4 mesh, and the instructions it executed. The two serialized
    tridiagonal loops give single-row, loop-variant regions that are
    empty on three ranks in four. *)
let tomcatv_run_words ~topology ~iters =
  let eng =
    Run.Spec.(
      default Programs.Suite.tomcatv.Programs.Bench_def.source
      |> with_defines [ ("n", 32.); ("iters", float_of_int iters) ]
      |> with_mesh 4 4 |> with_topology topology |> build |> engine_of)
  in
  let w0 = Gc.minor_words () in
  let res = Sim.Engine.run eng in
  let w = Gc.minor_words () -. w0 in
  (w, res.Sim.Engine.stats.Sim.Stats.instructions)

(** Differential allocation per executed instruction, the way
    test_comm.ml isolates steady-state communication: set-up costs are
    the same at both iteration counts, so the delta over the delta in
    instructions is the steady-state cost of dispatch. Measured 0.285
    words per instruction (OCaml 5.1, dev profile; 0.437 while the
    kernels took a memoized [Zpl.Region.t] and a row sweep allocated one
    range per new row, 1.075 with boxed scalar values, 26.1 before
    kernel regions were clipped in place). Kernels now run on the
    evaluated bounds, so what is left is the opaque reductions' fold.
    Mesh and torus sends route through links without boxing a float,
    so they meet the same bound (1.008 words per instruction while
    routing returned boxed floats). *)
let test_dispatch_alloc_gate () =
  List.iter
    (fun topology ->
      ignore (tomcatv_run_words ~topology ~iters:1);
      let w_lo, i_lo = tomcatv_run_words ~topology ~iters:2
      and w_hi, i_hi = tomcatv_run_words ~topology ~iters:6 in
      let per_instr = (w_hi -. w_lo) /. float_of_int (i_hi - i_lo) in
      Alcotest.(check bool)
        (Printf.sprintf
           "TOMCATV 4x4 %s allocates %.3f minor words per instruction (want \
            <= 1.25)"
           (Machine.Topology.name topology) per_instr)
        true
        (per_instr <= 1.25))
    Machine.Topology.all

(** A scalar-heavy loop: float, int and bool assigns and a
    comparison-guarded [if] per trip, nothing else. *)
let scalar_loop_src trips =
  Printf.sprintf
    {|
constant trips = %d;
var A : [1..4, 1..4] float;
var x, y : float;
var k, m : int;
var b : bool;
procedure main();
begin
  y := 3.0;
  for k := 1 to trips do
    x := x + 0.5 * y - 1.0;
    m := m + k * 2;
    b := x > y and not (m < k);
    if x >= 2.0 * y then
      y := y + 1.0;
    else
      x := x - 0.25;
    end;
  end;
end;
|}
    trips

(** Minor words and instructions of one engine run (2x2 PVM) of
    [src], and minor words and steps of one Seqexec run. *)
let loop_words src =
  let c, plans = compiled_plans Run.Spec.(default src |> with_mesh 2 2) in
  let eng = Sim.Engine.of_plans plans in
  let w0 = Gc.minor_words () in
  let res = Sim.Engine.run eng in
  let w_eng = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  let t = Runtime.Seqexec.run c.prog in
  let w_seq = Gc.minor_words () -. w0 in
  ( (w_eng, res.Sim.Engine.stats.Sim.Stats.instructions),
    (w_seq, t.Runtime.Seqexec.steps) )

(** Scalar code runs on typed slots: no op allocates, so the
    differential words per engine instruction and per Seqexec step
    (1,000 vs 11,000 trips) stay near zero. The boxed-value executors
    they replace read 5.40 and 10.67 (OCaml 5.1, dev profile). *)
let test_scalar_alloc_gate () =
  ignore (loop_words (scalar_loop_src 10));
  let (we_lo, i_lo), (ws_lo, s_lo) = loop_words (scalar_loop_src 1_000)
  and (we_hi, i_hi), (ws_hi, s_hi) = loop_words (scalar_loop_src 11_000) in
  let per_instr = (we_hi -. we_lo) /. float_of_int (i_hi - i_lo)
  and per_step = (ws_hi -. ws_lo) /. float_of_int (s_hi - s_lo) in
  Alcotest.(check bool)
    (Printf.sprintf
       "scalar loop allocates %.3f minor words per engine instruction \
        (want <= 0.1)"
       per_instr)
    true (per_instr <= 0.1);
  Alcotest.(check bool)
    (Printf.sprintf
       "scalar loop allocates %.3f minor words per Seqexec step (want <= 0.1)"
       per_step)
    true (per_step <= 0.1)

(** A row sweep with no shift, no reduction and no communication: a
    loop-variant single-row region, new on every trip. *)
let row_sweep_src trips =
  Printf.sprintf
    {|
constant n = 16;
constant trips = %d;
var A, B : [1..n, 1..n] float;
var t, i : int;
procedure main();
begin
  [1..n, 1..n] A := 2.0;
  for t := 1 to trips do
    for i := 1 to n do
      [i..i, 1..n] B := A + 1.0;
    end;
  end;
end;
|}
    trips

(** Kernels run on the evaluated bounds, so a row sweep allocates
    nothing per row: differential words per engine instruction and per
    Seqexec step (10 vs 110 sweeps) stay near zero. Handing the kernels
    a [Zpl.Region.t] read 0.348 and 24.0 (OCaml 5.1, dev profile). *)
let test_row_sweep_alloc_gate () =
  ignore (loop_words (row_sweep_src 2));
  let (we_lo, i_lo), (ws_lo, s_lo) = loop_words (row_sweep_src 10)
  and (we_hi, i_hi), (ws_hi, s_hi) = loop_words (row_sweep_src 110) in
  let per_instr = (we_hi -. we_lo) /. float_of_int (i_hi - i_lo)
  and per_step = (ws_hi -. ws_lo) /. float_of_int (s_hi - s_lo) in
  Alcotest.(check bool)
    (Printf.sprintf
       "row sweep allocates %.3f minor words per engine instruction \
        (want <= 0.01)"
       per_instr)
    true (per_instr <= 0.01);
  Alcotest.(check bool)
    (Printf.sprintf
       "row sweep allocates %.3f minor words per Seqexec step (want <= 0.01)"
       per_step)
    true (per_step <= 0.01)

(** TOMCATV pl at n = 16 m on an [m x m] mesh. *)
let tomcatv_scaled m =
  Run.Spec.(
    default Programs.Suite.tomcatv.Programs.Bench_def.source
    |> with_defines [ ("n", float_of_int (16 * m)); ("iters", 2.) ]
    |> with_mesh m m)

(** Words one {!Sim.Engine.of_plans} allocates per rank (minor plus
    major minus promoted) for TOMCATV pl at n = 16 m on an [m x m]
    mesh. A minor collection on both sides flushes the counters, which
    lag the allocation otherwise. *)
let mint_words_per_rank m =
  let plans = (Run.Spec.build (tomcatv_scaled m)).Run.Spec.a_plans in
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let eng = Sim.Engine.of_plans plans in
  let w = words () -. w0 in
  ignore (Sys.opaque_identity eng);
  w /. float_of_int (m * m)

(** Per-engine state grows with the ranks, not with their square:
    every message side mints its own channel, and nothing is sized
    ranks x transfers per rank. Measured 1,346 and 1,385 words per rank
    at 8x8 and 16x16 (OCaml 5.1; 2,168 and 2,211 with one kernel
    workspace per rank); per-rank state sized ranks x transfers roughly
    doubles the ratio. *)
let test_mint_scaling () =
  let w8 = mint_words_per_rank 8 and w16 = mint_words_per_rank 16 in
  Alcotest.(check bool)
    (Printf.sprintf "mint words per rank: %.0f at 8x8, %.0f at 16x16 \
                     (want ratio <= 1.15)" w8 w16)
    true
    (w16 <= 1.15 *. w8)

(** Heap words of the kernel workspace of one engine for TOMCATV pl at
    n = 16 m on an [m x m] mesh. *)
let workspace_words m =
  Sim.Engine.workspace_words
    (Run.Spec.engine_of (Run.Spec.build (tomcatv_scaled m)))

(** An engine runs one kernel at a time, so all its ranks bind one
    kernel workspace, sized by the program's widest statement: its
    words do not grow with the rank count (one workspace per rank,
    sized by the sum over statements, grew linearly). *)
let test_workspace_per_engine () =
  let w2 = workspace_words 2 and w8 = workspace_words 8 in
  Alcotest.(check bool)
    (Printf.sprintf "kernel workspace words: %d at 2x2, %d at 8x8" w2 w8)
    true (w8 <= w2)

let () =
  Alcotest.run "engine"
    [ ( "execution",
        [ Alcotest.test_case "counts & time" `Quick test_counts_and_time;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "gather == oracle" `Quick test_gather_matches_oracle;
          Alcotest.test_case "replicated scalars" `Quick test_replicated_scalars_agree;
          Alcotest.test_case "for bound read once == oracle" `Quick
            test_for_bound_read_once;
          Alcotest.test_case "reduction in SR..DN window" `Quick
            test_reduction_inside_transfer ] );
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
      ( "clipping",
        [ Alcotest.test_case "loop-variant regions == oracle" `Quick
            test_clip_vs_oracle;
          Alcotest.test_case "read past the allocation" `Quick
            test_read_past_alloc;
          Alcotest.test_case "float region bound" `Quick
            test_float_region_bound ] );
      ( "allocation",
        [ Alcotest.test_case "kernel dispatch words per instruction" `Quick
            test_dispatch_alloc_gate;
          Alcotest.test_case "mint words scale with ranks" `Quick
            test_mint_scaling;
          Alcotest.test_case "one kernel workspace per engine" `Quick
            test_workspace_per_engine;
          Alcotest.test_case "scalar loop words per instruction" `Quick
            test_scalar_alloc_gate;
          Alcotest.test_case "row sweep words per instruction" `Quick
            test_row_sweep_alloc_gate ] );
      ( "guards",
        [ Alcotest.test_case "wide shift rejected" `Quick test_rejects_wide_shift;
          Alcotest.test_case "instruction limit" `Quick test_instruction_limit;
          Alcotest.test_case "deadlock message" `Quick
            test_deadlock_message ] ) ]
