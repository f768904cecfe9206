(** Unit and property tests for the region algebra, the foundation of the
    runtime's ownership and halo arithmetic. *)

open Commopt.Zpl

let r2 a b c d = Region.make [ (a, b); (c, d) ]

let check_region = Alcotest.testable (Fmt.of_to_string Region.to_string) Region.equal

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let test_size () =
  Alcotest.(check int) "4x4" 16 (Region.size (r2 1 4 1 4));
  Alcotest.(check int) "row" 5 (Region.size (r2 3 3 1 5));
  Alcotest.(check int) "empty" 0 (Region.size (r2 5 4 1 5));
  Alcotest.(check int) "rank3" 24 (Region.size (Region.make [ (1, 2); (1, 3); (1, 4) ]));
  (* past max_int, an extent or a cell count raises instead of wrapping *)
  let m = 1 lsl 31 in
  Alcotest.(check int) "largest square below max_int" ((m * m) - m)
    (Region.size (r2 1 m 1 (m - 1)));
  List.iter
    (fun (what, r) ->
      Alcotest.(check bool) (what ^ " does not fit") false (Region.fits r);
      Alcotest.check_raises what
        (Invalid_argument "Region: extent or cell count past max_int")
        (fun () -> ignore (Region.size r)))
    [ ("extent", r2 (-4_000_000_000_000_000_000) 4_000_000_000_000_000_000 1 2);
      ("cell count", r2 1 m 1 m);
      ("extent beside an empty dim", r2 min_int max_int 2 1) ]

let test_empty () =
  Alcotest.(check bool) "normal" false (Region.is_empty (r2 1 4 1 4));
  Alcotest.(check bool) "inverted" true (Region.is_empty (r2 4 1 1 4));
  Alcotest.(check bool) "one cell" false (Region.is_empty (r2 2 2 2 2))

let test_inter () =
  Alcotest.check check_region "overlap" (r2 2 4 3 4)
    (Region.inter (r2 1 4 1 4) (r2 2 9 3 9));
  Alcotest.(check bool) "disjoint is empty" true
    (Region.is_empty (Region.inter (r2 1 2 1 2) (r2 5 9 5 9)));
  Alcotest.check check_region "self" (r2 1 4 1 4)
    (Region.inter (r2 1 4 1 4) (r2 1 4 1 4))

let test_shift () =
  Alcotest.check check_region "east" (r2 1 4 2 5)
    (Region.shift (r2 1 4 1 4) [| 0; 1 |]);
  Alcotest.check check_region "nw" (r2 0 3 0 3)
    (Region.shift (r2 1 4 1 4) [| -1; -1 |])

(* a bound shifted past either end of the int range raises instead of
   wrapping; one shifted onto max_int or min_int is kept *)
let test_shift_past_int () =
  let m = max_int in
  Alcotest.check check_region "onto max_int" (r2 1 2 (m - 1) m)
    (Region.shift (r2 1 2 (m - 2) (m - 1)) [| 0; 1 |]);
  Alcotest.check check_region "onto min_int" (r2 min_int (min_int + 1) 1 2)
    (Region.shift (r2 (min_int + 1) (min_int + 2) 1 2) [| -1; 0 |]);
  List.iter
    (fun (what, r, off) ->
      Alcotest.check_raises what
        (Invalid_argument "Region: shifted bound past max_int")
        (fun () -> ignore (Region.shift r off)))
    [ ("past max_int", r2 1 2 (m - 1) m, [| 0; 1 |]);
      ("past min_int", r2 min_int 0 1 2, [| -1; 0 |]);
      ("far past max_int", r2 1 2 1 m, [| 0; max_int |]) ]

let test_subset () =
  Alcotest.(check bool) "inside" true (Region.subset (r2 2 3 2 3) (r2 1 4 1 4));
  Alcotest.(check bool) "outside" false (Region.subset (r2 0 3 2 3) (r2 1 4 1 4));
  Alcotest.(check bool) "empty always subset" true
    (Region.subset (r2 5 4 1 1) (r2 1 2 1 2))

let test_hull () =
  Alcotest.check check_region "hull" (r2 0 9 1 8)
    (Region.hull (r2 0 3 4 8) (r2 2 9 1 5));
  Alcotest.check check_region "hull with empty" (r2 1 2 1 2)
    (Region.hull (r2 1 2 1 2) (r2 9 5 1 1))

let test_iter_order () =
  let pts = ref [] in
  Region.iter (r2 1 2 1 2) (fun p -> pts := Array.copy p :: !pts);
  Alcotest.(check (list (array int)))
    "row-major"
    [ [| 1; 1 |]; [| 1; 2 |]; [| 2; 1 |]; [| 2; 2 |] ]
    (List.rev !pts)

let test_iter_empty () =
  let n = ref 0 in
  Region.iter (r2 3 2 1 5) (fun _ -> incr n);
  Alcotest.(check int) "no points" 0 !n

let test_contains () =
  Alcotest.(check bool) "in" true (Region.contains_point (r2 1 4 1 4) [| 2; 3 |]);
  Alcotest.(check bool) "edge" true (Region.contains_point (r2 1 4 1 4) [| 4; 4 |]);
  Alcotest.(check bool) "out" false (Region.contains_point (r2 1 4 1 4) [| 0; 3 |])

let test_fold () =
  let sum = Region.fold (r2 1 3 1 3) (fun acc p -> acc + p.(0) + p.(1)) 0 in
  Alcotest.(check int) "sum of coords" 36 sum

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_region =
  QCheck.Gen.(
    let bound = int_range (-4) 8 in
    map
      (fun (a, b, c, d) -> Region.make [ (a, a + b); (c, c + d) ])
      (quad bound (int_range (-2) 6) bound (int_range (-2) 6)))

let arb_region = QCheck.make ~print:Region.to_string gen_region

let gen_offset = QCheck.Gen.(map (fun (a, b) -> [| a; b |]) (pair (int_range (-3) 3) (int_range (-3) 3)))

let arb_offset =
  QCheck.make
    ~print:(fun o -> Printf.sprintf "[%d,%d]" o.(0) o.(1))
    gen_offset

let prop_inter_commutes =
  QCheck.Test.make ~name:"inter commutes" ~count:500
    (QCheck.pair arb_region arb_region) (fun (a, b) ->
      let x = Region.inter a b and y = Region.inter b a in
      Region.equal x y || (Region.is_empty x && Region.is_empty y))

let prop_inter_subset =
  QCheck.Test.make ~name:"inter is a subset of both" ~count:500
    (QCheck.pair arb_region arb_region) (fun (a, b) ->
      let i = Region.inter a b in
      Region.subset i a && Region.subset i b)

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift there and back" ~count:500
    (QCheck.pair arb_region arb_offset) (fun (r, off) ->
      let neg = Array.map (fun d -> -d) off in
      Region.equal r (Region.shift (Region.shift r off) neg))

let prop_shift_preserves_size =
  QCheck.Test.make ~name:"shift preserves size" ~count:500
    (QCheck.pair arb_region arb_offset) (fun (r, off) ->
      Region.size r = Region.size (Region.shift r off))

let prop_iter_count =
  QCheck.Test.make ~name:"iter visits size points" ~count:300 arb_region
    (fun r ->
      let n = ref 0 in
      Region.iter r (fun _ -> incr n);
      !n = Region.size r)

let prop_hull_contains =
  QCheck.Test.make ~name:"hull contains both" ~count:500
    (QCheck.pair arb_region arb_region) (fun (a, b) ->
      let h = Region.hull a b in
      Region.subset a h && Region.subset b h)

let () =
  Alcotest.run "region"
    [ ( "units",
        [ Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "is_empty" `Quick test_empty;
          Alcotest.test_case "inter" `Quick test_inter;
          Alcotest.test_case "shift" `Quick test_shift;
          Alcotest.test_case "shift past the int range" `Quick
            test_shift_past_int;
          Alcotest.test_case "subset" `Quick test_subset;
          Alcotest.test_case "hull" `Quick test_hull;
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "iter empty" `Quick test_iter_empty;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "fold" `Quick test_fold ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_inter_commutes; prop_inter_subset; prop_shift_roundtrip;
            prop_shift_preserves_size; prop_iter_count; prop_hull_contains ] )
    ]
