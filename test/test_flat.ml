(** Flattening tests: the jump-threaded instruction vector must encode
    repeat/for/if control flow exactly; verified both structurally and by
    abstract execution of the scalar part. *)

open Commopt

let flatten ?(config = Opt.Config.baseline) src =
  Ir.Flat.flatten (Opt.Passes.compile config (Zpl.Check.compile_string src))

let prelude =
  {|
region R = [1..4, 1..4];
var A : [1..4, 1..4] float;
var x : float;
var i : int;
|}

(** Execute only the scalar/jump part of a flat program, ignoring kernels;
    returns the trace of executed opcode names and the final scalars. *)
let abstract_run (f : Ir.Flat.t) =
  let prog = f.Ir.Flat.prog in
  let scalars = Runtime.Values.layout_of_prog prog in
  let sc = Runtime.Values.compiler scalars in
  let code =
    Array.map
      (function
        | Ir.Flat.FScalar { lhs; rhs } -> `Assign (Runtime.Values.assign sc ~lhs rhs)
        | Ir.Flat.FJumpIfNot (c, _) -> `Cond (Runtime.Values.cond sc c)
        | _ -> `None)
      f.Ir.Flat.ops
  in
  let slots = Runtime.Values.make_slots (Runtime.Values.spec sc) in
  let trace = ref [] in
  let pc = ref 0 in
  let steps = ref 0 in
  let running = ref true in
  while !running do
    incr steps;
    if !steps > 10_000 then failwith "abstract run diverged";
    (match f.Ir.Flat.ops.(!pc) with
    | Ir.Flat.FHalt ->
        trace := "halt" :: !trace;
        running := false
    | Ir.Flat.FKernel _ ->
        trace := "kernel" :: !trace;
        incr pc
    | Ir.Flat.FReduce _ ->
        trace := "reduce" :: !trace;
        incr pc
    | Ir.Flat.FComm _ ->
        trace := "comm" :: !trace;
        incr pc
    | Ir.Flat.FCollPart _ | Ir.Flat.FCollFin _ ->
        trace := "coll" :: !trace;
        incr pc
    | Ir.Flat.FScalar _ ->
        (match code.(!pc) with `Assign a -> a slots | _ -> assert false);
        trace := "scalar" :: !trace;
        incr pc
    | Ir.Flat.FJump t ->
        trace := "jump" :: !trace;
        pc := t
    | Ir.Flat.FJumpIfNot (_, t) ->
        trace := "cond" :: !trace;
        let c = match code.(!pc) with `Cond c -> c | _ -> assert false in
        if c slots then incr pc else pc := t)
  done;
  (List.rev !trace, Runtime.Values.read_all scalars slots)

let int_of = function Runtime.Values.VInt i -> i | _ -> Alcotest.fail "not an int"
let float_of = function Runtime.Values.VFloat f -> f | _ -> Alcotest.fail "not a float"

let count what trace = List.length (List.filter (( = ) what) trace)

let test_for_loop_repeats_body () =
  let f =
    flatten
      (prelude
     ^ "procedure main(); begin for i := 1 to 5 do [R] A := 1.0; end; end;")
  in
  let trace, env = abstract_run f in
  Alcotest.(check int) "5 kernel executions" 5 (count "kernel" trace);
  (* the loop variable is the freshest scalar (the checker creates it) *)
  Alcotest.(check bool) "loop var ran past bound" true
    (int_of env.(Array.length env - 1) = 6)

let test_downto_loop () =
  let f =
    flatten
      (prelude
     ^ "procedure main(); begin for i := 5 downto 2 do [R] A := 1.0; end; end;")
  in
  let trace, env = abstract_run f in
  Alcotest.(check int) "4 kernel executions" 4 (count "kernel" trace);
  Alcotest.(check int) "final value" 1
    (int_of env.(Array.length env - 1))

let test_empty_for_loop () =
  let f =
    flatten
      (prelude
     ^ "procedure main(); begin for i := 5 to 2 do [R] A := 1.0; end; end;")
  in
  let trace, _ = abstract_run f in
  Alcotest.(check int) "no kernel executions" 0 (count "kernel" trace)

let test_repeat_until () =
  let f =
    flatten
      (prelude
     ^ "procedure main(); begin x := 0.0; repeat x := x + 1.0; until x > 2.5; end;")
  in
  let trace, env = abstract_run f in
  (* body runs 3 times: x = 1, 2, 3 *)
  Alcotest.(check int) "3 body scalars + init" 4 (count "scalar" trace);
  Alcotest.(check (float 0.)) "final x" 3.0 (float_of env.(0))

let test_if_else_paths () =
  let body cond =
    prelude
    ^ Printf.sprintf
        "procedure main(); begin x := %s; if x > 0.0 then x := 10.0; else x \
         := 20.0; end; end;"
        cond
  in
  let run c =
    let _, env = abstract_run (flatten (body c)) in
    float_of env.(0)
  in
  Alcotest.(check (float 0.)) "then" 10.0 (run "1.0");
  Alcotest.(check (float 0.)) "else" 20.0 (run "-1.0")

let test_if_without_else () =
  let f =
    flatten
      (prelude
     ^ "procedure main(); begin x := 1.0; if x < 0.0 then x := 9.0; end; end;")
  in
  let _, env = abstract_run f in
  Alcotest.(check (float 0.)) "untouched" 1.0 (float_of env.(0))

let test_nested_control () =
  let f =
    flatten
      (prelude
     ^ {|
procedure main();
begin
  x := 0.0;
  for i := 1 to 3 do
    repeat
      x := x + 1.0;
    until x > 100.0;
  end;
end;
|})
  in
  let _, env = abstract_run f in
  (* inner repeat runs to 101 the first time, then once per outer iter *)
  Alcotest.(check (float 0.)) "nested loops" 103.0 (float_of env.(0))

let test_jump_targets_in_range () =
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      let prog = Programs.Suite.compile ~scale:`Test b in
      let f = Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum prog) in
      let n = Array.length f.Ir.Flat.ops in
      Array.iter
        (function
          | Ir.Flat.FJump t | Ir.Flat.FJumpIfNot (_, t) ->
              if t < 0 || t >= n then Alcotest.failf "jump target %d out of %d" t n
          | _ -> ())
        f.Ir.Flat.ops;
      (* exactly one halt, at the end *)
      Alcotest.(check bool) "halt last" true
        (f.Ir.Flat.ops.(n - 1) = Ir.Flat.FHalt);
      Array.iteri
        (fun i op -> if op = Ir.Flat.FHalt && i <> n - 1 then
            Alcotest.fail "interior halt")
        f.Ir.Flat.ops)
    Programs.Suite.all

let test_printer_outputs () =
  let prog =
    Zpl.Check.compile_string
      (prelude
     ^ "procedure main(); begin for i := 1 to 2 do [R] A := A + 1.0; end; end;")
  in
  let ir = Opt.Passes.compile Opt.Config.baseline prog in
  let s = Ir.Printer.program_to_annotated_string ir in
  let flat_s = Ir.Printer.flat_to_string (Ir.Flat.flatten ir) in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "structured shows for" true (contains s "for i := 1 to 2 do");
  Alcotest.(check bool) "flat shows jumps" true (contains flat_s "jump");
  Alcotest.(check bool) "flat shows halt" true (contains flat_s "halt");
  (* both dumps name a transfer by its [Transfer.describe] id, the one
     schedcheck diagnostics and deadlock messages use *)
  let ir =
    Opt.Passes.compile Opt.Config.baseline
      (Zpl.Check.compile_string
         ("direction east = [0, 1];\n" ^ prelude
        ^ "procedure main(); begin [2..4, 1..3] A := A@east; end;"))
  in
  let s = Ir.Printer.program_to_annotated_string ir
  and flat_s = Ir.Printer.flat_to_string (Ir.Flat.flatten ir) in
  Alcotest.(check bool) "one transfer" true
    (Array.length ir.Ir.Instr.transfers = 1);
  let name = Ir.Transfer.describe ir.Ir.Instr.prog ir.Ir.Instr.transfers.(0) in
  Alcotest.(check string) "transfer id" "x0:A@east" name;
  Alcotest.(check bool) "structured names it" true (contains s ("DN(" ^ name ^ ")"));
  Alcotest.(check bool) "flat names it" true (contains flat_s ("DN(" ^ name ^ ")"))

let () =
  Alcotest.run "flat"
    [ ( "control flow",
        [ Alcotest.test_case "for repeats body" `Quick test_for_loop_repeats_body;
          Alcotest.test_case "downto" `Quick test_downto_loop;
          Alcotest.test_case "empty for" `Quick test_empty_for_loop;
          Alcotest.test_case "repeat/until" `Quick test_repeat_until;
          Alcotest.test_case "if/else" `Quick test_if_else_paths;
          Alcotest.test_case "if without else" `Quick test_if_without_else;
          Alcotest.test_case "nested" `Quick test_nested_control ] );
      ( "structure",
        [ Alcotest.test_case "jump targets" `Quick test_jump_targets_in_range;
          Alcotest.test_case "printers" `Quick test_printer_outputs ] ) ]
