(** Optimizer tests: redundant removal, combination (both heuristics),
    pipelining, DR-early placement, pass invariants, and the emitted
    IRONMAN call order. These mirror the paper's Figures 1 and 2. *)

open Commopt
module B = Ir.Block

let prelude =
  {|
constant n = 8;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction east = [0, 1];
direction west = [0, -1];
direction north = [-1, 0];
var A, C, D, E : [BigR] float;
var x : float;
|}

let program body = Zpl.Check.compile_string (prelude ^ body)

let static config body = Ir.Count.static_count (Opt.Passes.compile config (program body))

let first_block config body =
  let code = Opt.Passes.optimize config (Opt.Lower.lower (program body)) in
  let acc = ref [] in
  B.map_blocks (fun b -> acc := b :: !acc) code;
  List.hd (List.rev !acc)

(* --- redundant removal (paper Figure 1(b)) --- *)

let test_rr_removes_duplicate () =
  let body = "procedure main(); begin [R] C := A@east; [R] D := A@east; end;" in
  Alcotest.(check int) "baseline 2" 2 (static Opt.Config.baseline body);
  Alcotest.(check int) "rr 1" 1 (static Opt.Config.rr_only body)

let test_rr_blocked_by_write () =
  (* the communicated array is modified in between: not redundant *)
  let body =
    "procedure main(); begin [R] C := A@east; [R] A := C; [R] D := A@east; end;"
  in
  Alcotest.(check int) "rr keeps both" 2 (static Opt.Config.rr_only body)

let test_rr_different_offsets_kept () =
  let body = "procedure main(); begin [R] C := A@east; [R] D := A@west; end;" in
  Alcotest.(check int) "different offsets" 2 (static Opt.Config.rr_only body)

let test_rr_scoped_to_block () =
  (* same transfer on both sides of a loop boundary is NOT removed: the
     optimizer's scope is a single source-level basic block *)
  let body =
    {|
procedure main();
begin
  [R] C := A@east;
  repeat
    [R] D := A@east;
  until x < 1.0;
end;
|}
  in
  Alcotest.(check int) "kept across blocks" 2 (static Opt.Config.rr_only body)

(* --- combination (paper Figure 1(c)) --- *)

let test_cc_combines_same_offset () =
  let body = "procedure main(); begin [R] C := A@east + E@east; end;" in
  Alcotest.(check int) "baseline 2" 2 (static Opt.Config.baseline body);
  Alcotest.(check int) "cc 1" 1 (static Opt.Config.cc_cum body);
  let b = first_block Opt.Config.cc_cum "procedure main(); begin [R] C := A@east + E@east; end;" in
  match B.live_xfers b with
  | [ x ] -> Alcotest.(check int) "two member arrays" 2 (List.length x.B.arrays)
  | _ -> Alcotest.fail "expected one combined transfer"

let test_cc_requires_same_offset () =
  let body = "procedure main(); begin [R] C := A@east + E@west; end;" in
  Alcotest.(check int) "not combined" 2 (static Opt.Config.cc_cum body)

let test_cc_blocked_by_write () =
  (* E is written between A's use and E's use: windows do not intersect *)
  let body =
    "procedure main(); begin [R] C := A@east; [R] E := C; [R] D := E@east; end;"
  in
  Alcotest.(check int) "not combined" 2 (static Opt.Config.cc_cum body)

let test_cc_same_array_not_merged () =
  (* paper: "same offset vector but different array variable" *)
  let body =
    "procedure main(); begin [R] C := A@east; [R] A := C; [R] D := A@east; end;"
  in
  Alcotest.(check int) "same array stays separate" 2 (static Opt.Config.cc_cum body)

(* --- pipelining (paper Figure 1(d)) --- *)

let test_pl_hoists_send () =
  let body =
    "procedure main(); begin [R] A := 1.0; [R] C := D; [R] E := A@east; end;"
  in
  let b = first_block Opt.Config.pl_cum body in
  match B.live_xfers b with
  | [ x ] ->
      Alcotest.(check int) "send after A's write" 1 x.B.send_pos;
      Alcotest.(check int) "recv before use" 2 x.B.recv_pos;
      Alcotest.(check int) "counts unchanged" 1
        (static Opt.Config.pl_cum body)
  | _ -> Alcotest.fail "expected one transfer"

let test_pl_stops_at_top () =
  let body = "procedure main(); begin [R] C := D; [R] E := A@east; end;" in
  let b = first_block Opt.Config.pl_cum body in
  match B.live_xfers b with
  | [ x ] -> Alcotest.(check int) "top of block" 0 x.B.send_pos
  | _ -> Alcotest.fail "expected one transfer"

let test_dr_early () =
  (* a previous transfer's fringe data is read at statement 1, so the next
     same-key transfer's DR may move to position 2, not earlier *)
  let body =
    {|
procedure main();
begin
  [R] C := A@east;
  [R] D := A@east + C;
  [R] A := D;
  [R] E := C;
  [R] E := A@east;
end;
|}
  in
  let b = first_block Opt.Config.pl_cum body in
  let late =
    List.find
      (fun (x : B.xfer) -> x.B.recv_pos = 4)
      (B.live_xfers b)
  in
  Alcotest.(check int) "DR after last fringe reader" 2 late.B.ready_pos;
  Alcotest.(check int) "SR after the write to A" 3 late.B.send_pos

(* --- heuristics (paper Figure 2) --- *)

let heuristic_body =
  (* (A,e) used at stmt 0 (distance 0), (E,e) used at stmt 2 with E
     defined before the block (distance = 2 statements). Merging would
     cost (E,e) its distance: max-latency refuses, max-combining merges. *)
  "procedure main(); begin [R] C := A@east; [R] D := C * 2.0; [R] D := D + E@east; end;"

let test_heuristics_differ () =
  Alcotest.(check int) "max-combining merges" 1
    (static Opt.Config.pl_cum heuristic_body);
  Alcotest.(check int) "max-latency refuses" 2
    (static Opt.Config.pl_max_latency heuristic_body)

let test_max_latency_merges_equal_windows () =
  (* both transfers live at the same window: no distance is lost *)
  let body = "procedure main(); begin [R] C := A@east + E@east; end;" in
  Alcotest.(check int) "merged" 1 (static Opt.Config.pl_max_latency body)

(* --- emission order --- *)

let test_emitted_call_order () =
  let ir =
    Opt.Passes.compile Opt.Config.pl_cum
      (program
         "procedure main(); begin [R] A := 1.0; [R] C := A@east + E@east; end;")
  in
  let calls =
    let rec go = function
      | [] -> []
      | Ir.Instr.Comm (c, x) :: rest -> (c, x) :: go rest
      | _ :: rest -> go rest
    in
    go ir.Ir.Instr.code
  in
  (match calls with
  | [ (Ir.Instr.DR, a); (Ir.Instr.SR, b); (Ir.Instr.DN, c); (Ir.Instr.SV, d) ]
    when a = b && b = c && c = d ->
      ()
  | _ -> Alcotest.fail "expected DR SR DN SV of one transfer");
  Alcotest.(check int) "one transfer in table" 1
    (Array.length ir.Ir.Instr.transfers)

let test_invariants_hold () =
  List.iter
    (fun config ->
      let code = Opt.Passes.optimize config (Opt.Lower.lower (program heuristic_body)) in
      B.check_invariants code)
    Opt.Config.[ baseline; rr_only; cc_cum; pl_cum; pl_max_latency ]

(* An invariant violation planted by a buggy pass must be diagnosable
   from the message alone: block identity, xfer uid, and the offending
   positions. *)
let test_invariant_message_identifies_xfer () =
  let bad : B.xfer =
    { B.uid = 7; off = (1, 0); arrays = [ 0 ]; ready_pos = 0; send_pos = 1;
      recv_pos = 1; live = true }
  in
  (* send_pos = 1 is out of range for an empty work array *)
  let code = [ B.Straight { B.work = [||]; xfers = [ bad ] } ] in
  match B.check_invariants code with
  | () -> Alcotest.fail "expected an invariant failure"
  | exception Failure msg ->
      let contains needle =
        let lh = String.length msg and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub msg i ln = needle || go (i + 1))
        in
        ln = 0 || go 0
      in
      List.iter
        (fun frag ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S mentions %S" msg frag)
            true (contains frag))
        [ "block 0"; "send_pos out of range"; "uid 7"; "(1,0)"; "0/1/1" ]

let test_config_names () =
  Alcotest.(check string) "baseline" "baseline" (Opt.Config.name Opt.Config.baseline);
  Alcotest.(check string) "rr" "rr" (Opt.Config.name Opt.Config.rr_only);
  Alcotest.(check string) "cc" "cc" (Opt.Config.name Opt.Config.cc_cum);
  Alcotest.(check string) "pl" "pl" (Opt.Config.name Opt.Config.pl_cum);
  Alcotest.(check string) "maxlat" "pl-maxlat" (Opt.Config.name Opt.Config.pl_max_latency)

(* --- dead-branch elimination (abstract interpretation satellite) --- *)

let dbe_body =
  {|
constant use_east = 0;
procedure main();
begin
  if use_east > 0 then
    [R] C := A@east;
  else
    [R] C := A;
  end;
  [R] D := A@west;
end;
|}

let test_dbe_removes_dead_transfer () =
  (* the guard folds to the literal 0 > 0: dbe proves the then-arm
     infeasible and the A@east transfer disappears from the static
     schedule; lowered without dbe, both branches survive *)
  Alcotest.(check int) "dbe drops the dead transfer" 1
    (static Opt.Config.baseline dbe_body);
  let unspliced = program dbe_body in
  Alcotest.(check int) "without dbe both arms survive" 2
    (Ir.Count.static_count
       (Ir.Instr.of_code unspliced (Opt.Lower.lower unspliced)));
  (* -D re-deciding the guard resurrects the transfer *)
  let prog =
    Zpl.Check.compile_string ~defines:[ ("use_east", 1.) ] (prelude ^ dbe_body)
  in
  Alcotest.(check int) "-D use_east=1 keeps it" 2
    (Ir.Count.static_count (Opt.Passes.compile Opt.Config.baseline prog))

let test_dbe_keeps_undecided_branch () =
  (* x is data-dependent (reduce result): the interval domain cannot
     decide the guard, so both arms must survive *)
  let body =
    {|
procedure main();
begin
  [R] x := +<< A;
  if x > 0.0 then
    [R] C := A@east;
  end;
  [R] D := A@west;
end;
|}
  in
  Alcotest.(check int) "undecided guard kept" 2
    (static Opt.Config.baseline body)

let test_dbe_zero_trip_for () =
  (* a statically zero-trip counted loop (hi < lo never enters the body,
     per the sequential executor) leaves x at its pre-loop 0.0, so the
     guard must stay undecided: walking the body once and keeping its
     post-state (x = 5.0) would splice the then-arm and delete the
     else-arm transfer that every concrete run takes *)
  let body =
    {|
procedure main();
begin
  x := 0.0;
  for i := 1 to 0 do
    x := 5.0;
  end;
  if x = 5.0 then
    [R] C := A;
  else
    [R] C := A@east;
    x := 2.0;
  end;
  [R] D := A@west;
end;
|}
  in
  Alcotest.(check int) "both arms survive" 2 (static Opt.Config.baseline body);
  (* runtime behavior preserved: the else-arm actually runs *)
  let prog = program body in
  let res =
    Sim.Engine.run
      (Sim.Engine.of_plans
         (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm
            ~pr:2 ~pc:2
            (Ir.Flat.flatten (Opt.Passes.compile Opt.Config.baseline prog))))
  in
  let x = Option.get (Zpl.Prog.find_scalar prog "x") in
  match (Sim.Engine.final_env res.Sim.Engine.engine).(x.Zpl.Prog.s_id) with
  | Runtime.Values.VFloat v ->
      Alcotest.(check (float 0.0)) "else-arm ran after zero-trip loop" 2.0 v
  | _ -> Alcotest.fail "x is not a float"

(* int [+] wraps at 63 bits: max_int + 1 is negative, so the guard is
   false at run time. Float interval arithmetic reads it as 2^62 > 0, and
   deciding the branch on that would splice the wrong arm. *)
let test_dbe_int_wrap () =
  let body =
    {|
var i : int;
procedure main();
begin
  i := 4611686018427387903;
  i := i + 1;
  if i > 0 then
    [R] C := A;
    x := 1.0;
  else
    [R] C := A@east;
    x := 2.0;
  end;
end;
|}
  in
  Alcotest.(check int) "both arms survive" 1 (static Opt.Config.baseline body);
  let prog = program body in
  let res =
    Sim.Engine.run
      (Sim.Engine.of_plans
         (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm
            ~pr:2 ~pc:2
            (Ir.Flat.flatten (Opt.Passes.compile Opt.Config.baseline prog))))
  in
  let x = Option.get (Zpl.Prog.find_scalar prog "x") in
  Alcotest.(check bool) "else-arm ran" true
    ((Sim.Engine.final_env res.Sim.Engine.engine).(x.Zpl.Prog.s_id)
    = Runtime.Values.VFloat 2.0)

(* the dead arm splits the straight-line code around it unless dbe runs
   before lowering *)
let joined_body =
  {|
constant dbg = 0;
procedure main();
begin
  [BigR] A := Index1 + 0.5 * Index2;
  [R] C := A@east;
  if dbg > 0 then
    [R] A := A@west;
  end;
  [R] D := A@east;
end;
|}

let test_dbe_joins_blocks () =
  (* dbe splices the decided guard out of the typed program, so both
     reads of A@east lower into one basic block and rr keeps one of the
     two transfers *)
  Alcotest.(check int) "baseline" 2 (static Opt.Config.baseline joined_body);
  List.iter
    (fun config ->
      Alcotest.(check int) (Opt.Config.name config) 1 (static config joined_body);
      ignore
        (Commopt.verify
           Run.Spec.(
             default (prelude ^ joined_body) |> with_config config
             |> with_mesh 2 2)))
    Opt.Config.[ rr_only; cc_cum; pl_cum ]

let () =
  Alcotest.run "opt"
    [ ( "redundant removal",
        [ Alcotest.test_case "removes duplicate" `Quick test_rr_removes_duplicate;
          Alcotest.test_case "blocked by write" `Quick test_rr_blocked_by_write;
          Alcotest.test_case "offsets differ" `Quick test_rr_different_offsets_kept;
          Alcotest.test_case "block-scoped" `Quick test_rr_scoped_to_block ] );
      ( "combination",
        [ Alcotest.test_case "same offset merges" `Quick test_cc_combines_same_offset;
          Alcotest.test_case "offset must match" `Quick test_cc_requires_same_offset;
          Alcotest.test_case "write blocks merge" `Quick test_cc_blocked_by_write;
          Alcotest.test_case "same array not merged" `Quick test_cc_same_array_not_merged
        ] );
      ( "pipelining",
        [ Alcotest.test_case "hoists sends" `Quick test_pl_hoists_send;
          Alcotest.test_case "stops at block top" `Quick test_pl_stops_at_top;
          Alcotest.test_case "DR-early placement" `Quick test_dr_early ] );
      ( "heuristics",
        [ Alcotest.test_case "heuristics differ" `Quick test_heuristics_differ;
          Alcotest.test_case "equal windows merge" `Quick
            test_max_latency_merges_equal_windows ] );
      ( "dead branches",
        [ Alcotest.test_case "dbe removes a transfer" `Quick
            test_dbe_removes_dead_transfer;
          Alcotest.test_case "undecided branch kept" `Quick
            test_dbe_keeps_undecided_branch;
          Alcotest.test_case "zero-trip for keeps both arms" `Quick
            test_dbe_zero_trip_for;
          Alcotest.test_case "int wrap keeps both arms" `Quick
            test_dbe_int_wrap;
          Alcotest.test_case "spliced arm joins its block" `Quick
            test_dbe_joins_blocks ]
      );
      ( "emission",
        [ Alcotest.test_case "call order" `Quick test_emitted_call_order;
          Alcotest.test_case "invariants" `Quick test_invariants_hold;
          Alcotest.test_case "invariant failure names the xfer" `Quick
            test_invariant_message_identifies_xfer;
          Alcotest.test_case "config names" `Quick test_config_names ] ) ]
