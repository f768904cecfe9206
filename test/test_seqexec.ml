(** Sequential oracle tests: control flow, convergence, reductions and
    the runaway-loop guard. *)

open Commopt

let run ?limit src = Runtime.Seqexec.run ?limit (Zpl.Check.compile_string src)

let scalar t name =
  match Runtime.Seqexec.scalar_value t name with
  | Some (Runtime.Values.VFloat f) -> f
  | Some (Runtime.Values.VInt i) -> float_of_int i
  | _ -> Alcotest.failf "scalar %s missing" name

let test_jacobi_converges () =
  let t =
    run
      {|
constant n = 10;
region R = [1..n, 1..n];
var A, B : [0..n+1, 0..n+1] float;
var err : float;
direction e = [0,1]; direction w = [0,-1];
direction no = [-1,0]; direction s = [1,0];
procedure main();
begin
  [0..n+1, 0..n+1] A := 0.0;
  [n+1..n+1, 0..n+1] A := 4.0;
  repeat
    [R] B := 0.25 * (A@e + A@w + A@no + A@s);
    [R] err := max<< abs(B - A);
    [R] A := B;
  until err < 0.001;
end;
|}
  in
  Alcotest.(check bool) "converged" true (scalar t "err" < 0.001);
  (* interior values bounded by boundary conditions *)
  let a = Option.get (Runtime.Seqexec.array_store t "A") in
  Alcotest.(check bool) "maximum principle" true
    (let ok = ref true in
     Zpl.Region.iter
       (Zpl.Region.make [ (1, 10); (1, 10) ])
       (fun p ->
         let v = Runtime.Store.get a p in
         if v < 0.0 || v > 4.0 then ok := false);
     !ok)

let test_for_loops () =
  let t =
    run
      {|
var x : float;
var i : int;
region R = [1..2, 1..2];
var A : [1..2, 1..2] float;
procedure main();
begin
  x := 0.0;
  for i := 1 to 5 do x := x + i; end;
  for i := 3 downto 1 do x := x * 2.0 + i; end;
  [R] A := x;
end;
|}
  in
  (* 15 -> 15*2+3=33 -> 33*2+2=68 -> 68*2+1=137 *)
  Alcotest.(check (float 0.)) "loop arithmetic" 137.0 (scalar t "x")

let test_if_else () =
  let t =
    run
      {|
var x, y : float;
region R = [1..2, 1..2];
var A : [1..2, 1..2] float;
procedure main();
begin
  x := 3.0;
  if x > 2.0 then y := 1.0; else y := -1.0; end;
  if x > 5.0 then y := y + 10.0; end;
  [R] A := y;
end;
|}
  in
  Alcotest.(check (float 0.)) "branching" 1.0 (scalar t "y")

let test_reductions () =
  let t =
    run
      {|
constant n = 4;
region R = [1..n, 1..n];
var A : [1..n, 1..n] float;
var s, mx, mn : float;
procedure main();
begin
  [R] A := Index1 * 10.0 + Index2;
  [R] s := +<< A;
  [R] mx := max<< A;
  [R] mn := min<< A;
end;
|}
  in
  (* sum over i,j of 10 i + j, i,j in 1..4: 16*25 + ... = 10*40 + 40 = 440? *)
  Alcotest.(check (float 1e-9)) "sum" 440.0 (scalar t "s");
  Alcotest.(check (float 0.)) "max" 44.0 (scalar t "mx");
  Alcotest.(check (float 0.)) "min" 11.0 (scalar t "mn")

let test_step_limit () =
  Alcotest.check_raises "runaway repeat" (Runtime.Budget.Exceeded 50)
    (fun () ->
      ignore
        (run ~limit:50
           {|
var x : float;
region R = [1..2, 1..2];
var A : [1..2, 1..2] float;
procedure main();
begin
  x := 1.0;
  repeat
    x := x + 1.0;
  until x < 0.0;
end;
|}))

let test_dynamic_region_rows () =
  let t =
    run
      {|
constant n = 6;
region R = [1..n, 1..n];
var A : [0..n+1, 0..n+1] float;
var i : int;
direction no = [-1, 0];
procedure main();
begin
  [0..n+1, 0..n+1] A := 0.0;
  [0..0, 0..n+1] A := 1.0;
  for i := 1 to n do
    [i..i, 1..n] A := A@no + 1.0;
  end;
end;
|}
  in
  let a = Option.get (Runtime.Seqexec.array_store t "A") in
  (* the wavefront accumulates: row i holds i + 1 *)
  Alcotest.(check (float 0.)) "row 6" 7.0 (Runtime.Store.get a [| 6; 3 |])

let () =
  Alcotest.run "seqexec"
    [ ( "programs",
        [ Alcotest.test_case "jacobi converges" `Quick test_jacobi_converges;
          Alcotest.test_case "for up/down" `Quick test_for_loops;
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "row wavefront" `Quick test_dynamic_region_rows ] ) ]
