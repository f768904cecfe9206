(** Checker tests: name resolution, typing, region scoping, constant
    folding and overrides, procedure inlining, and every class of semantic
    error the optimizer relies on being rejected. *)

open Commopt.Zpl

let prelude =
  {|
constant n = 8;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction east = [0, 1];
direction north = [-1, 0];
var A, B : [BigR] float;
var x, y : float;
var k : int;
var flag : bool;
|}

let compile ?defines body = Check.compile_string ?defines (prelude ^ body)

let expect_error body frag =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    ln = 0 || go 0
  in
  match compile body with
  | _ -> Alcotest.failf "expected checker error mentioning %S" frag
  | exception Loc.Error (_, msg) ->
      if not (contains msg frag) then
        Alcotest.failf "error %S does not mention %S" msg frag

let test_basic () =
  let p = compile "procedure main(); begin [R] A := B@east + x; end;" in
  Alcotest.(check int) "arrays" 2 (Array.length p.Prog.arrays);
  Alcotest.(check int) "scalars" 4 (Array.length p.Prog.scalars);
  match p.Prog.body with
  | [ Prog.AssignA { lhs = 0; rhs; _ } ] ->
      Alcotest.(check (list (pair int (pair int int))))
        "comm needs"
        [ (1, (0, 1)) ]
        (Prog.comm_needs rhs)
  | _ -> Alcotest.fail "body shape"

let test_constant_folding () =
  let p = compile "procedure main(); begin [1..n-1, 2..n] A := 1.0; end;" in
  match p.Prog.body with
  | [ Prog.AssignA { region; _ } ] ->
      (match Prog.static_region region with
      | Some r ->
          Alcotest.(check string) "folded bounds" "[1..7, 2..8]" (Region.to_string r)
      | None -> Alcotest.fail "region should be static")
  | _ -> Alcotest.fail "body shape"

(** Folding follows the run-time rules: int [+ - *] wraps at 63 bits,
    [/] and [^] give a float, comparisons compare as floats. Each row
    folds a literal expression into [f] and computes the same operation
    at run time from scalars into [r]; the folded literal must be [r]'s
    value, type and bits included, and so must [f] after a run. *)
let test_fold_runtime_table () =
  let module V = Commopt.Runtime.Values in
  let rows =
    [ ("2^53 + 1 + 0", "int", "9007199254740993", "0", "a + b",
       "9007199254740992 + 1 + 0");
      ("max_int + 1", "int", "4611686018427387903", "1", "a + b",
       "4611686018427387903 + 1");
      ("-min_int", "int", "-4611686018427387903 - 1", "0", "-a",
       "-(-4611686018427387903 - 1)");
      ("6 / 3", "float", "6", "3", "a / b", "6 / 3");
      ("7 / 2", "float", "7", "2", "a / b", "7 / 2");
      ("2 ^ 3", "float", "2", "3", "a ^ b", "2 ^ 3") ]
  in
  List.iter
    (fun (label, ty, a, b, at_run, folded) ->
      let src =
        Printf.sprintf
          "var A : [1..2, 1..2] float;\nvar a, b : int;\nvar r, f : %s;\n\
           procedure main();\nbegin\n  a := %s;\n  b := %s;\n  r := %s;\n\
          \  f := %s;\nend;\n"
          ty a b at_run folded
      in
      let p = Check.compile_string src in
      let id name =
        match Prog.find_scalar p name with
        | Some s -> s.Prog.s_id
        | None -> Alcotest.fail name
      in
      let lit =
        List.find_map
          (function
            | Prog.AssignS { lhs; rhs; _ } when lhs = id "f" -> Some rhs
            | _ -> None)
          p.Prog.body
      in
      let folded_value =
        match lit with
        | Some (Prog.SInt i) -> V.VInt i
        | Some (Prog.SFloat x) -> V.VFloat x
        | _ -> Alcotest.failf "%s: %s did not fold to a literal" label folded
      in
      let t = Commopt.Runtime.Seqexec.run p in
      let value name =
        Option.get (Commopt.Runtime.Seqexec.scalar_value t name)
      in
      let same x y =
        match (x, y) with
        | V.VFloat x, V.VFloat y ->
            Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | _ -> V.equal_value x y
      in
      let show = V.show_value in
      Alcotest.(check bool)
        (Printf.sprintf "%s: folded %s = run time %s" label
           (show folded_value) (show (value "r")))
        true
        (same folded_value (value "r") && same (value "f") (value "r")))
    rows

let test_defines_override () =
  let p =
    compile ~defines:[ ("n", 16.) ]
      "procedure main(); begin [R] A := 0.0; end;"
  in
  Alcotest.(check string) "declared region follows n=16" "[0..17, 0..17]"
    (Region.to_string (Prog.array_info p 0).a_region)

let test_region_inheritance () =
  (* the second statement inherits [R] from the first *)
  let p =
    compile "procedure main(); begin [R] A := 1.0; B := A@east; end;"
  in
  match p.Prog.body with
  | [ Prog.AssignA a1; Prog.AssignA a2 ] ->
      Alcotest.(check bool) "same region" true (Prog.equal_dregion a1.region a2.region)
  | _ -> Alcotest.fail "body shape"

let test_loop_variant_region () =
  let p =
    compile
      "procedure main(); begin for k := 2 to n do [k..k, 1..n] A := 1.0; end; end;"
  in
  match p.Prog.body with
  | [ Prog.For { body = [ Prog.AssignA { region; _ } ]; _ } ] ->
      Alcotest.(check bool) "dynamic" true (Prog.static_region region = None)
  | _ -> Alcotest.fail "body shape"

let test_inlining () =
  let p =
    compile
      {|
procedure helper(); begin [R] A := A + 1.0; end;
procedure main(); begin helper(); helper(); end;
|}
  in
  Alcotest.(check int) "two inlined statements" 2 (List.length p.Prog.body)

let test_recursion_rejected () =
  expect_error
    "procedure loop(); begin loop(); end; procedure main(); begin loop(); end;"
    "recursive"

let test_reduce_forms () =
  let p =
    compile "procedure main(); begin [R] x := max<< abs(A - B); end;"
  in
  match p.Prog.body with
  | [ Prog.ReduceS { r_op = Ast.RMax; _ } ] -> ()
  | _ -> Alcotest.fail "reduce shape"

let test_flops_positive () =
  let p =
    compile "procedure main(); begin [R] A := sqrt(B@east * B + 2.0); end;"
  in
  match p.Prog.body with
  | [ Prog.AssignA { flops; _ } ] ->
      Alcotest.(check bool) "flops counted" true (flops >= 10)
  | _ -> Alcotest.fail "body shape"

let test_fringe_widths () =
  let p =
    compile
      "procedure main(); begin [1..n-2, 1..n] A := B@[2,0] + B@east + A@north; end;"
  in
  let w = Prog.fringe_widths p in
  Alcotest.(check int) "A width" 1 w.(0);
  Alcotest.(check int) "B width" 2 w.(1)

let test_errors () =
  expect_error "procedure main(); begin [R] A := flag; end;" "boolean";
  expect_error "procedure main(); begin [R] A := C; end;" "unknown name";
  expect_error "procedure main(); begin x := A; end;" "scalar context";
  expect_error "procedure main(); begin [R] A := B@nowhere; end;" "unknown name";
  expect_error "procedure main(); begin [R] A := B@n; end;" "not a direction";
  expect_error "procedure main(); begin [R] k := max<< A; end;" "float scalar";
  expect_error "procedure main(); begin [R] A := 1.0 + max<< B; end;"
    "top of an assignment";
  expect_error "procedure main(); begin A := 1.0; end;" "no region in scope";
  expect_error "procedure main(); begin [0..n+2, 1..n] A := 1.0; end;"
    "outside";
  expect_error "procedure main(); begin [R] A := B@[9,0]; end;"
    "reads outside";
  expect_error "procedure main(); begin repeat x := 1.0; until x; end;" "boolean";
  expect_error "procedure main(); begin for k := 1.5 to 3 do x := 1.0; end; end;"
    "integers";
  expect_error "procedure main(); begin [k..k*2, 1..n] A := 1.0; end;"
    "form";
  expect_error "var Z : [1..4] float;\nprocedure main(); begin x := 1.0; end;"
    "rank"

(* A reduction over a statically empty region would silently yield the
   operator's identity (neg_infinity for max<<, infinity for min<<) —
   the checker rejects it with the source location, whether the bounds
   are empty in the source text or emptied by a [constant] override.
   Regions that only become empty at run time cannot be seen here and
   must be accepted; their identity semantics are pinned by the runtime
   tests. *)
let test_empty_reduction_rejected () =
  expect_error "procedure main(); begin [5..4, 1..n] x := max<< A; end;"
    "statically empty";
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    ln = 0 || go 0
  in
  match
    compile ~defines:[ ("n", 0.) ]
      "procedure main(); begin [R] x := min<< A; end;"
  with
  | _ -> Alcotest.fail "expected rejection when a define empties the region"
  | exception Loc.Error (_, msg) ->
      Alcotest.(check bool) "mentions the empty region" true
        (contains msg "statically empty" && contains msg "min<<")

let test_dynamic_empty_reduction_accepted () =
  ignore
    (compile
       "procedure main(); begin k := 0; [1..k, 1..n] x := max<< A; end;")

(* The body may not assign its own loop variable, by assignment or by
   reduction; the error points at the offending statement. *)
let test_loop_var_write_rejected () =
  expect_error
    "procedure main(); begin for k := 1 to 3 do k := k + 1; end; end;"
    "loop variable \"k\"";
  expect_error
    "procedure main(); begin for i := 1 to 3 do [R] i := max<< A; end; end;"
    "own 'for' body";
  match
    compile
      "procedure main();\nbegin\n  for k := 1 to 3 do\n    k := 2;\n  end;\nend;"
  with
  | _ -> Alcotest.fail "expected a loop-variable error"
  | exception Loc.Error (loc, _) ->
      Alcotest.(check int) "line of the assignment"
        (List.length (String.split_on_char '\n' prelude) + 3)
        loc.Loc.line

(* A checker message is one line: a literal "@" in a format string must
   not turn into a Format break, or the CLI's [error:] line is cut. *)
let test_message_one_line () =
  match compile "procedure main(); begin x := A@east; end;" with
  | _ -> Alcotest.fail "expected a scalar-context error"
  | exception Loc.Error (_, msg) ->
      Alcotest.(check string) "whole message, one line"
        "shifted reference \"A\"@... in a scalar context" msg

(* An integral define outside the int range would wrap (1e19 read as 0,
   2^62 as -2^62); it is rejected at the constant it overrides. *)
let test_define_out_of_range () =
  List.iter
    (fun v ->
      match compile ~defines:[ ("n", v) ] "procedure main(); begin end;" with
      | _ -> Alcotest.failf "define n=%g accepted" v
      | exception Loc.Error (loc, msg) ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%g: %S names the define" v msg)
            true
            (String.starts_with ~prefix:"define n=" msg);
          Alcotest.(check int) "at the constant's line" 2 loc.Loc.line)
    [ 1e19; 0x1p62; -1e300; -0x1.0000000000001p62 ];
  (* a large define inside the range stays an int *)
  let p = compile ~defines:[ ("n", 0x1p61) ] "procedure main(); begin end;" in
  Alcotest.(check string) "BigR at n = 2^61"
    "[0..2305843009213693953, 0..2305843009213693953]"
    (Region.to_string (Prog.array_info p 0).a_region)

(* A [for] bound the body may change is hoisted into a fresh scalar
   assigned just before the loop; a bound the body leaves alone is kept
   in place. *)
let test_for_bound_hoisted () =
  (match
     (compile
        "procedure main(); begin k := 3; for i := 1 to k do k := 1; end; end;")
       .Prog.body
   with
  | [ _; Prog.AssignS { lhs = h; rhs = Prog.SVar 2; _ };
      Prog.For { hi = Prog.SVar h'; _ } ] ->
      Alcotest.(check int) "loop reads the hoisted scalar" h h'
  | _ -> Alcotest.fail "expected k.hi := k before the loop");
  match
    (compile
       "procedure main(); begin k := 3; for i := 1 to k do x := 1.0; end; end;")
      .Prog.body
  with
  | [ _; Prog.For { hi = Prog.SVar 2; _ } ] -> ()
  | _ -> Alcotest.fail "an unwritten bound stays in place"

let test_index_arrays () =
  let p = compile "procedure main(); begin [R] A := Index1 + 2.0 * Index2; end;" in
  match p.Prog.body with
  | [ Prog.AssignA { rhs = Prog.ABin (_, Prog.AIndex 0, _); _ } ] -> ()
  | _ -> Alcotest.fail "Index1/Index2 shape"

let () =
  Alcotest.run "check"
    [ ( "accepts",
        [ Alcotest.test_case "basic program" `Quick test_basic;
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "folding follows run-time rules" `Quick
            test_fold_runtime_table;
          Alcotest.test_case "defines override" `Quick test_defines_override;
          Alcotest.test_case "region inheritance" `Quick test_region_inheritance;
          Alcotest.test_case "loop-variant regions" `Quick test_loop_variant_region;
          Alcotest.test_case "procedure inlining" `Quick test_inlining;
          Alcotest.test_case "reductions" `Quick test_reduce_forms;
          Alcotest.test_case "flops estimate" `Quick test_flops_positive;
          Alcotest.test_case "fringe widths" `Quick test_fringe_widths;
          Alcotest.test_case "IndexD" `Quick test_index_arrays;
          Alcotest.test_case "for bound hoisted" `Quick test_for_bound_hoisted;
          Alcotest.test_case "dynamic empty reduction accepted" `Quick
            test_dynamic_empty_reduction_accepted ] );
      ( "rejects",
        [ Alcotest.test_case "recursion" `Quick test_recursion_rejected;
          Alcotest.test_case "semantic errors" `Quick test_errors;
          Alcotest.test_case "empty reduction rejected" `Quick
            test_empty_reduction_rejected;
          Alcotest.test_case "loop variable write rejected" `Quick
            test_loop_var_write_rejected;
          Alcotest.test_case "message on one line" `Quick test_message_one_line;
          Alcotest.test_case "out-of-range define" `Quick
            test_define_out_of_range ] ) ]
