(** Runtime tests: mesh layout, local stores with fringes, halo piece
    arithmetic (including diagonal transfers and mesh edges), kernel
    compilation, and scalar evaluation. *)

open Commopt
module R = Zpl.Region

let r2 a b c d = R.make [ (a, b); (c, d) ]

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_split_range () =
  Alcotest.(check (array (pair int int)))
    "even" [| (0, 3); (4, 7) |]
    (Runtime.Layout.split_range 0 7 2);
  Alcotest.(check (array (pair int int)))
    "remainder goes first" [| (1, 4); (5, 7); (8, 10) |]
    (Runtime.Layout.split_range 1 10 3);
  Alcotest.(check (array (pair int int)))
    "more procs than cells" [| (1, 1); (2, 2); (3, 2) |]
    (Runtime.Layout.split_range 1 2 3)

let test_layout_boxes_tile () =
  let l = Runtime.Layout.make ~pr:3 ~pc:2 (r2 0 10 1 9) in
  let total =
    List.init (Runtime.Layout.nprocs l) (fun p -> R.size (Runtime.Layout.box l p))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "boxes tile the space" (R.size (r2 0 10 1 9)) total

let test_owner () =
  let l = Runtime.Layout.make ~pr:2 ~pc:2 (r2 0 7 0 7) in
  Alcotest.(check (option int)) "origin" (Some 0) (Runtime.Layout.owner l ~i:0 ~j:0);
  Alcotest.(check (option int)) "far corner" (Some 3) (Runtime.Layout.owner l ~i:7 ~j:7);
  Alcotest.(check (option int)) "outside" None (Runtime.Layout.owner l ~i:9 ~j:0);
  (* owner agrees with box *)
  Alcotest.(check bool) "consistent" true
    (R.contains_point (Runtime.Layout.box l 2) [| 6; 1 |]
    && Runtime.Layout.owner l ~i:6 ~j:1 = Some 2)

let test_coords_roundtrip () =
  let l = Runtime.Layout.make ~pr:3 ~pc:4 (r2 0 11 0 11) in
  for p = 0 to Runtime.Layout.nprocs l - 1 do
    let row, col = Runtime.Layout.coords l p in
    Alcotest.(check (option int)) "roundtrip" (Some p)
      (Runtime.Layout.proc_at l ~row ~col)
  done

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let info2 =
  { Zpl.Prog.a_id = 0; a_name = "A"; a_region = r2 0 9 0 9; a_rank = 2 }

let test_store_get_set () =
  let s = Runtime.Store.make info2 ~owned:(r2 2 5 2 5) ~fringe:1 in
  Runtime.Store.set s [| 3; 4 |] 7.5;
  Alcotest.(check (float 0.)) "read back" 7.5 (Runtime.Store.get s [| 3; 4 |]);
  (* fringe cells are addressable *)
  Runtime.Store.set s [| 1; 2 |] 1.25;
  Alcotest.(check (float 0.)) "fringe cell" 1.25 (Runtime.Store.get s [| 1; 2 |]);
  Alcotest.check_raises "outside alloc"
    (Invalid_argument "Store.get: 0,0 out of [1..6, 1..6] of A") (fun () ->
      ignore (Runtime.Store.get s [| 0; 0 |]))

let test_store_wireplan_roundtrip () =
  let s = Runtime.Store.make info2 ~owned:(r2 0 4 0 4) ~fringe:1 in
  let rect = r2 2 3 1 4 in
  let plan = Runtime.Wireplan.build ~stores:[| s |] [ (0, rect) ] in
  let arr = Array.init (R.size rect) (fun i -> float_of_int i +. 0.5) in
  Runtime.Wireplan.unpack plan [| s |] (Runtime.Store.buf_of_array arr);
  let buf = Runtime.Store.alloc_buf (Runtime.Wireplan.cells plan) in
  Runtime.Wireplan.pack plan [| s |] buf;
  Alcotest.(check (array (float 0.)))
    "roundtrip" arr
    (Runtime.Store.buf_to_array buf);
  Alcotest.(check (float 0.)) "row-major order" 1.5 (Runtime.Store.get s [| 2; 2 |])

let test_store_rank3 () =
  let info3 =
    { Zpl.Prog.a_id = 0; a_name = "Q"; a_region = R.make [ (1, 4); (1, 4); (1, 6) ];
      a_rank = 3 }
  in
  let s =
    Runtime.Store.make info3 ~owned:(R.make [ (1, 2); (1, 2); (1, 6) ]) ~fringe:1
  in
  Runtime.Store.set s [| 2; 2; 6 |] 3.5;
  Alcotest.(check (float 0.)) "3d cell" 3.5 (Runtime.Store.get s [| 2; 2; 6 |]);
  (* dim 2 has no fringe *)
  Alcotest.(check bool) "alloc grows dims 0-1 only" true
    (R.equal (Runtime.Store.alloc s) (R.make [ (0, 3); (0, 3); (1, 6) ]))

(* ------------------------------------------------------------------ *)
(* Halo                                                                *)
(* ------------------------------------------------------------------ *)

let layout22 = Runtime.Layout.make ~pr:2 ~pc:2 (r2 0 9 0 9)

let test_halo_east () =
  (* proc 0 (NW block, rows 0-4, cols 0-4) reading A@east needs col 5 from
     proc 1 *)
  let pieces = Runtime.Halo.recv_pieces layout22 info2 ~p:0 ~off:(0, 1) in
  match pieces with
  | [ { Runtime.Halo.partner = 1; rect } ] ->
      Alcotest.(check string) "rect" "[0..4, 5..5]" (R.to_string rect)
  | _ -> Alcotest.fail "expected one piece from proc 1"

let test_halo_edge_has_no_partner () =
  (* proc 1 (NE block) reading @east has nobody to its east *)
  Alcotest.(check int) "no pieces" 0
    (List.length (Runtime.Halo.recv_pieces layout22 info2 ~p:1 ~off:(0, 1)))

let test_halo_diagonal_three_partners () =
  (* proc 0 reading @se needs a row slab (from 2), a col slab (from 1) and
     the corner (from 3) *)
  let pieces = Runtime.Halo.recv_pieces layout22 info2 ~p:0 ~off:(1, 1) in
  let partners = List.map (fun p -> p.Runtime.Halo.partner) pieces in
  Alcotest.(check (list int)) "three partners" [ 1; 2; 3 ]
    (List.sort compare partners);
  let cells =
    List.fold_left (fun n p -> n + R.size p.Runtime.Halo.rect) 0 pieces
  in
  (* shifted 5x5 box minus its 4x4 overlap with the own box: 9 cells *)
  Alcotest.(check int) "cells" 9 cells

let test_halo_duality () =
  (* what q sends to p is exactly what p receives from q *)
  let all_procs = List.init 4 Fun.id in
  List.iter
    (fun p ->
      List.iter
        (fun off ->
          let recvs = Runtime.Halo.recv_pieces layout22 info2 ~p ~off in
          List.iter
            (fun (rp : Runtime.Halo.piece) ->
              let back =
                Runtime.Halo.send_pieces layout22 info2 ~p:rp.partner ~off
              in
              match
                List.find_opt (fun (s : Runtime.Halo.piece) -> s.partner = p) back
              with
              | Some s ->
                  Alcotest.(check string) "same rect" (R.to_string rp.rect)
                    (R.to_string s.rect)
              | None -> Alcotest.fail "missing dual send piece")
            recvs)
        [ (0, 1); (0, -1); (1, 0); (-1, 0); (1, 1); (-1, -1); (1, -1); (-1, 1) ])
    all_procs

let test_halo_wide_offset () =
  let pieces = Runtime.Halo.recv_pieces layout22 info2 ~p:0 ~off:(0, 2) in
  match pieces with
  | [ { Runtime.Halo.partner = 1; rect } ] ->
      Alcotest.(check string) "two columns" "[0..4, 5..6]" (R.to_string rect)
  | _ -> Alcotest.fail "expected a width-2 piece"

(* ------------------------------------------------------------------ *)
(* Kernels and scalar values                                           *)
(* ------------------------------------------------------------------ *)

(* Run [a] over [region] on the per-point path the engine and Seqexec
   fall back to: plan with [~row:false], bind the stores, execute. *)
let exec_point ~stores ~scalar ~region (a : Zpl.Prog.assign_a) =
  let ws = Runtime.Kernel.make_ws (Runtime.Values.layout [| Zpl.Ast.TFloat |]) in
  let rc = { Runtime.Kernel.rstore = (fun aid -> stores.(aid)); rws = ws } in
  let plan = Runtime.Kernel.plan_assign ~row:false rc a in
  Alcotest.(check bool) "per-point plan" false (Runtime.Kernel.plan_is_row plan);
  let slots = { Runtime.Values.f = [| scalar |]; i = [| 0 |] } in
  let env =
    Runtime.Kernel.make_env ~stores ~slots
      (Runtime.Kernel.make_workspace (Runtime.Kernel.ws_spec ws))
  in
  Runtime.Kernel.exec_plan plan ~env ~lhs:stores.(a.lhs) ~region

let test_kernel_eval () =
  let src = Runtime.Store.make info2 ~owned:(r2 0 9 0 9) ~fringe:0 in
  R.iter (r2 0 9 0 9) (fun p ->
      Runtime.Store.set src p (float_of_int ((10 * p.(0)) + p.(1))));
  let dst =
    Runtime.Store.make { info2 with a_id = 1; a_name = "B" } ~owned:(r2 0 9 0 9)
      ~fringe:0
  in
  let a : Zpl.Prog.assign_a =
    { region = Zpl.Prog.dregion_of_region (r2 3 3 4 4);
      lhs = 1;
      (* B := A@[0,1] * s + Index1 *)
      rhs =
        Zpl.Prog.(
          AArith
            ( `Add,
              AArith (`Mul, ARef (0, [| 0; 1 |]), AScalar 0),
              AIndex 0 ));
      flops = 3;
      loc = Zpl.Loc.dummy }
  in
  let cells =
    exec_point ~stores:[| src; dst |] ~scalar:2.0
      ~region:(r2 3 3 4 4) a
  in
  Alcotest.(check int) "cells" 1 cells;
  Alcotest.(check (float 1e-12)) "at (3,4)" ((35. *. 2.) +. 3.)
    (Runtime.Store.get dst [| 3; 4 |])

let test_buffered_assignment () =
  (* A := A@west over a row must read pre-assignment values (array
     semantics), which requires the temporary buffer *)
  let store = Runtime.Store.make info2 ~owned:(r2 0 9 0 9) ~fringe:0 in
  R.iter (r2 0 9 0 9) (fun p -> Runtime.Store.set store p (float_of_int p.(1)));
  let a : Zpl.Prog.assign_a =
    { region = Zpl.Prog.dregion_of_region (r2 5 5 1 9);
      lhs = 0;
      rhs = Zpl.Prog.ARef (0, [| 0; -1 |]);
      flops = 1;
      loc = Zpl.Loc.dummy }
  in
  Alcotest.(check bool) "needs buffer" true (Runtime.Kernel.needs_buffer a);
  let cells =
    exec_point ~stores:[| store |] ~scalar:0. ~region:(r2 5 5 1 9) a
  in
  Alcotest.(check int) "cells" 9 cells;
  (* every cell got its WEST neighbor's original value *)
  Alcotest.(check (float 0.)) "shifted once, not cascaded" 8.
    (Runtime.Store.get store [| 5; 9 |])

(* Edge semantics of scalar code, pinned to fixed values from outside:
   the engine and Seqexec run one compiled scalar program, so they cannot
   catch each other's errors. Each scalar is read back at its declared
   type from the oracle and from the engine on 2x2 under PVM and SHMEM. *)
let edge_src =
  {|
constant n = 4;
region R = [1..n, 1..n];
var A : [R] float;
var i, j, k, p, q, h, two : int;
var r, pw, fx, s, u : float;
var t, t2 : bool;
procedure main();
begin
  i := 4611686018427387903;
  j := i + 1;
  k := -j;
  p := 9007199254740992;
  q := p + 1;
  t := q = p;
  t2 := not (q > p) and (p < q or t);
  h := 7;
  two := 2;
  r := h / two;
  pw := two ^ 3;
  fx := h * two;
  [R] A := 0.5 + h;
  [R] s := +<< A;
  u := s * 2.0;
end;
|}

let edge_cases =
  Runtime.Values.
    [ ("max_int + 1 wraps", "j", VInt min_int);
      ("-min_int wraps", "k", VInt min_int);
      ("2^53 + 1 = 2^53 compares as floats", "t", VBool true);
      ("bool connectives", "t2", VBool true);
      ("int / int is a float", "r", VFloat 3.5);
      ("int ^ int is a float", "pw", VFloat 8.0);
      ("float scalar assigned an int", "fx", VFloat 14.0);
      ("int scalar in an array expression", "s", VFloat 120.0);
      ("scalar read after a reduction", "u", VFloat 240.0) ]

let test_values_eval () =
  let spec = Run.Spec.(default edge_src |> with_mesh 2 2) in
  let c = of_spec spec in
  let check who read =
    List.iter
      (fun (what, name, want) ->
        let got = read name in
        if got <> Some want then
          Alcotest.failf "%s (%s): %s = %s, want %s" what who name
            (match got with
            | Some v -> Runtime.Values.show_value v
            | None -> "missing")
            (Runtime.Values.show_value want))
      edge_cases
  in
  check "seqexec" (Runtime.Seqexec.scalar_value (run_oracle c));
  List.iter
    (fun (who, lib) ->
      let res =
        Run.Cache.run (Run.Cache.create ()) (Run.Spec.with_lib lib spec)
      in
      let env = Sim.Engine.final_env res.Sim.Engine.engine in
      check who (fun name ->
          Option.map
            (fun (s : Zpl.Prog.scalar_info) -> env.(s.s_id))
            (Zpl.Prog.find_scalar c.prog name)))
    [ ("engine 2x2 PVM", Machine.T3d.pvm); ("engine 2x2 SHMEM", Machine.T3d.shmem) ]

let test_reduce_ops () =
  Alcotest.(check (float 0.)) "sum identity" 0. (Runtime.Reduce.identity Zpl.Ast.RSum);
  Alcotest.(check (float 0.)) "max" 5. (Runtime.Reduce.apply Zpl.Ast.RMax 5. 3.);
  Alcotest.(check (float 0.)) "min" 3. (Runtime.Reduce.apply Zpl.Ast.RMin 5. 3.);
  Alcotest.(check (float 0.)) "prod identity" 7.
    (Runtime.Reduce.apply Zpl.Ast.RProd (Runtime.Reduce.identity Zpl.Ast.RProd) 7.)

let () =
  Alcotest.run "runtime"
    [ ( "layout",
        [ Alcotest.test_case "split_range" `Quick test_split_range;
          Alcotest.test_case "boxes tile" `Quick test_layout_boxes_tile;
          Alcotest.test_case "owner" `Quick test_owner;
          Alcotest.test_case "coords roundtrip" `Quick test_coords_roundtrip ] );
      ( "store",
        [ Alcotest.test_case "get/set" `Quick test_store_get_set;
          Alcotest.test_case "wireplan round trip" `Quick
            test_store_wireplan_roundtrip;
          Alcotest.test_case "rank 3" `Quick test_store_rank3 ] );
      ( "halo",
        [ Alcotest.test_case "east slice" `Quick test_halo_east;
          Alcotest.test_case "mesh edge" `Quick test_halo_edge_has_no_partner;
          Alcotest.test_case "diagonal 3 partners" `Quick test_halo_diagonal_three_partners;
          Alcotest.test_case "send/recv duality" `Quick test_halo_duality;
          Alcotest.test_case "wide offset" `Quick test_halo_wide_offset ] );
      ( "kernels",
        [ Alcotest.test_case "expression eval" `Quick test_kernel_eval;
          Alcotest.test_case "buffered assignment" `Quick test_buffered_assignment;
          Alcotest.test_case "scalar values" `Quick test_values_eval;
          Alcotest.test_case "reduce ops" `Quick test_reduce_ops ] ) ]
