(** Schedcheck: the independent schedule verifier must (a) accept every
    schedule the real pipeline emits — all benchmarks under all paper
    experiment rows — and (b) reject perturbed schedules, with the
    intended checker firing and the diagnostic naming the transfer and
    its instruction position. The mutations mirror the failure modes the
    optimizations could introduce: dropped or duplicated IRONMAN calls,
    an SR hoisted above a writer, a needed transfer deleted, and
    non-canonical rendezvous orders. *)

open Commopt
module I = Ir.Instr
module S = Analysis.Schedcheck

(* ------------------------------------------------------------------ *)
(* Mutation helpers: structural edits on the final instruction tree    *)
(* ------------------------------------------------------------------ *)

(** Apply [f] to every instruction list in the tree, strictly in document
    order with inner lists before their enclosing list — so stateful
    "first match" edits hit the leftmost innermost occurrence. *)
let rec map_lists (f : I.instr list -> I.instr list) (is : I.instr list) :
    I.instr list =
  let rec each = function
    | [] -> []
    | i :: rest ->
        let i =
          match i with
          | I.Repeat (b, c) -> I.Repeat (map_lists f b, c)
          | I.For { var; lo; hi; step; body } ->
              I.For { var; lo; hi; step; body = map_lists f body }
          | I.If (c, a, b) -> I.If (c, map_lists f a, map_lists f b)
          | (I.Comm _ | I.Kernel _ | I.ScalarK _ | I.ReduceK _ | I.CollPart _
            | I.CollFin _) as i ->
              i
        in
        i :: each rest
  in
  f (each is)

let drop pred = map_lists (List.filter (fun i -> not (pred i)))

let dup pred =
  map_lists (List.concat_map (fun i -> if pred i then [ i; i ] else [ i ]))

(** Insert [x] after the first instruction matching [pred] (innermost
    lists are visited first). *)
let insert_after_first pred x code =
  let placed = ref false in
  map_lists
    (List.concat_map (fun i ->
         if (not !placed) && pred i then begin
           placed := true;
           [ i; x ]
         end
         else [ i ]))
    code

(** Swap the first adjacent pair where [p1 x; p2 y] into [y; x]. *)
let swap_adjacent p1 p2 code =
  let swapped = ref false in
  map_lists
    (fun l ->
      let rec go = function
        | x :: y :: rest when (not !swapped) && p1 x && p2 y ->
            swapped := true;
            y :: x :: rest
        | x :: rest -> x :: go rest
        | [] -> []
      in
      go l)
    code

let is_comm c t = fun i -> i = I.Comm (c, t)

(** Replace the [k]-th [Comm] (in {!map_lists} visiting order) by
    [f] of it. *)
let edit_nth_comm k f code =
  let seen = ref (-1) in
  map_lists
    (List.concat_map (function
      | I.Comm _ as i ->
          incr seen;
          if !seen = k then f i else [ i ]
      | i -> [ i ]))
    code

let count_comms code =
  let n = ref 0 in
  ignore
    (map_lists
       (List.map (fun i ->
            (match i with I.Comm _ -> incr n | _ -> ());
            i))
       code);
  !n

(* ------------------------------------------------------------------ *)
(* Fixture: a two-statement loop whose schedule we know exactly        *)
(* ------------------------------------------------------------------ *)

let fixture_src =
  {|
constant n = 8;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction east  = [ 0,  1];
direction west  = [ 0, -1];
direction north = [-1,  0];
var A, B : [BigR] float;
var t : int;
procedure main();
begin
  [BigR] A := Index1 * 0.5;
  [BigR] B := Index2 * 0.25;
  for t := 1 to 3 do
    [R] B := A@east + A@west;
    [R] A := 0.5 * B@north;
  end;
end;
|}

(* Baseline schedule of the loop body (transfer ids are dense in
   emission order):
     DR(x0:A@east) DR(x1:A@west) SR(x0) SR(x1)
     DN(x0) SV(x0) DN(x1) SV(x1)
     [R] B := A@east + A@west          <- writes B
     DR(x2:B@north) SR(x2) DN(x2) SV(x2)
     [R] A := 0.5 * B@north            <- writes A
   The sanity test below pins this down so the hardcoded ids in the
   mutations are justified. *)

let fixture () =
  Opt.Passes.compile Opt.Config.baseline
    (Zpl.Check.compile_string fixture_src)

let test_fixture_sanity () =
  let ir = fixture () in
  let prog = ir.I.prog in
  Alcotest.(check int) "three transfers" 3 (Array.length ir.I.transfers);
  Alcotest.(check (list string)) "transfer table"
    [ "x0:A@east"; "x1:A@west"; "x2:B@north" ]
    (Array.to_list
       (Array.map (fun x -> Ir.Transfer.describe prog x) ir.I.transfers));
  Alcotest.(check (list string)) "schedcheck-clean" []
    (List.map S.diag_to_string (S.check ir))

(* ------------------------------------------------------------------ *)
(* The mutation suite                                                  *)
(* ------------------------------------------------------------------ *)

let checkers ds =
  List.sort_uniq compare (List.map (fun d -> d.S.d_checker) ds)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(** Assert the mutated schedule is rejected, the intended checker fires,
    and some diagnostic of that checker names the expected transfer (by
    its [Transfer.describe] string) at a concrete position. *)
let assert_rejected ~name ~intended ~xfer (mutate : I.instr list -> I.instr list)
    =
  let ir = fixture () in
  let ir' = { ir with I.code = mutate ir.I.code } in
  let ds = S.check ir' in
  if ds = [] then Alcotest.failf "%s: mutation not rejected" name;
  if not (List.mem intended (checkers ds)) then
    Alcotest.failf "%s: %s checker did not fire; got:\n%s" name
      (S.checker_name intended)
      (String.concat "\n" (List.map S.diag_to_string ds));
  let named =
    List.filter
      (fun d ->
        d.S.d_checker = intended
        && contains d.S.d_msg (Ir.Transfer.describe ir.I.prog ir.I.transfers.(xfer)))
      ds
  in
  (match named with
  | [] ->
      Alcotest.failf "%s: no %s diagnostic names transfer %d:\n%s" name
        (S.checker_name intended) xfer
        (String.concat "\n" (List.map S.diag_to_string ds))
  | d :: _ ->
      if d.S.d_pos < 0 then Alcotest.failf "%s: negative position" name);
  (* the rendered diagnostic must carry a jumpable ir#N position *)
  List.iter
    (fun d ->
      let s = S.diag_to_string d in
      if not (contains s "ir#") then
        Alcotest.failf "%s: diagnostic lacks an ir# position: %s" name s)
    ds

let test_drop_dn () =
  (* SV arrives with the transfer still 'after SR' *)
  assert_rejected ~name:"drop DN" ~intended:S.Protocol ~xfer:0
    (drop (is_comm I.DN 0))

let test_drop_sv () =
  (* the activation never completes: caught at the loop's back edge /
     program end *)
  assert_rejected ~name:"drop SV" ~intended:S.Protocol ~xfer:2
    (drop (is_comm I.SV 2))

let test_duplicate_sr () =
  assert_rejected ~name:"duplicate SR" ~intended:S.Protocol ~xfer:0
    (dup (is_comm I.SR 0))

let test_sr_above_writer () =
  (* hoist DR/SR of x2:B@north above the kernel that writes B — the
     send races the message snapshot between SR and SV. The calls are
     re-inserted in canonical class positions so only the race checker
     can object. *)
  assert_rejected ~name:"SR above writer" ~intended:S.Race ~xfer:2 (fun code ->
      code
      |> drop (fun i -> is_comm I.DR 2 i || is_comm I.SR 2 i)
      |> insert_after_first (is_comm I.DR 1) (I.Comm (I.DR, 2))
      |> insert_after_first (is_comm I.SR 1) (I.Comm (I.SR, 2)))

let test_dn_after_reader () =
  (* deliver x2 only after the kernel that reads B@north: the read races
     the in-flight message *)
  assert_rejected ~name:"DN after reader" ~intended:S.Race ~xfer:2 (fun code ->
      let is_reader = function
        | I.Kernel a -> a.Zpl.Prog.lhs = 0 (* A := 0.5 * B@north *)
        | _ -> false
      in
      code
      |> drop (fun i -> is_comm I.DN 2 i || is_comm I.SV 2 i)
      |> insert_after_first is_reader (I.Comm (I.SV, 2))
      |> insert_after_first is_reader (I.Comm (I.DN, 2)))

let test_delete_needed_transfer () =
  (* remove all four calls of x0:A@east, as an unsound redundancy
     removal would: the stencil's fringe read is uncovered *)
  assert_rejected ~name:"delete needed transfer" ~intended:S.Availability
    ~xfer:0
    (drop (fun i -> match i with I.Comm (_, 0) -> true | _ -> false))

let test_dr_uid_order () =
  assert_rejected ~name:"DR uid order" ~intended:S.Order ~xfer:0
    (swap_adjacent (is_comm I.DR 0) (is_comm I.DR 1))

let test_sr_uid_order () =
  assert_rejected ~name:"SR uid order" ~intended:S.Order ~xfer:0
    (swap_adjacent (is_comm I.SR 0) (is_comm I.SR 1))

let test_split_dn_sv_pair () =
  (* [DN0 SV0 DN1 SV1] -> [DN0 DN1 SV0 SV1]: protocol-legal, but the
     rendezvous groups are no longer adjacent pairs *)
  assert_rejected ~name:"split DN/SV pair" ~intended:S.Order ~xfer:0
    (swap_adjacent (is_comm I.SV 0) (is_comm I.DN 1))

let jacobi_2x2 () =
  let b = Option.get (Programs.Suite.find "jacobi") in
  Opt.Passes.compile ~mesh:(2, 2) Opt.Config.pl_cum
    (Programs.Suite.compile ~scale:`Test b)

let test_loop_head_group () =
  (* jacobi's repeat body opens with DR(x0) at ir#3, a jump target of
     the flat form: the group starting there still contains that call,
     so a duplicate right after it breaks the group's id order *)
  let ir = jacobi_2x2 () in
  let ir' = { ir with I.code = dup (is_comm I.DR 0) ir.I.code } in
  Alcotest.(check (list (pair string int)))
    "protocol and order at the duplicate"
    [ ("protocol", 4); ("order", 4) ]
    (List.map (fun d -> (S.checker_name d.S.d_checker, d.S.d_pos)) (S.check ir'))

let test_mutation_grid () =
  (* drop or duplicate each call in turn, on jacobi and tomcatv under
     every experiment row, opaque and synthesized: every mutant must be
     caught with and without pruning, and the pruned diagnostics must
     be a subset of the unpruned ones (the precision-only contract) *)
  List.iter
    (fun name ->
      let b = Option.get (Programs.Suite.find name) in
      let prog = Programs.Suite.compile ~scale:`Test b in
      List.iter
        (fun (label, (config : Opt.Config.t), lib) ->
          List.iter
            (fun collective ->
              let config = { config with Opt.Config.collective } in
              let ir = Opt.Passes.compile ~lib ~mesh:(2, 2) config prog in
              for k = 0 to count_comms ir.I.code - 1 do
                List.iter
                  (fun (what, f) ->
                    let m = { ir with I.code = edit_nth_comm k f ir.I.code } in
                    let diags prune =
                      List.map S.diag_to_string (S.check ~prune m)
                    in
                    let full = diags false and pruned = diags true in
                    let where =
                      Printf.sprintf "%s [%s] %s: %s call %d" name label
                        (Opt.Config.collective_name collective)
                        what k
                    in
                    if pruned = [] then Alcotest.failf "%s: not caught" where;
                    List.iter
                      (fun d ->
                        if not (List.mem d full) then
                          Alcotest.failf "%s: pruning added %s" where d)
                      pruned)
                  [ ("drop", fun _ -> []); ("duplicate", fun i -> [ i; i ]) ]
              done)
            [ Opt.Config.Opaque; Opt.Config.Forced Ir.Coll.Binomial ])
        Report.Experiment.paper_rows)
    [ "jacobi"; "tomcatv" ]

(* ------------------------------------------------------------------ *)
(* Branch pruning: statically-infeasible arms                          *)
(* ------------------------------------------------------------------ *)

(* A stray DN for x0 — by the point it is inserted the activation has
   completed, so replaying it is a protocol violation wherever it is
   actually reachable. *)
let stray_dn = I.Comm (I.DN, 0)
let never = Zpl.Prog.SCompare (Zpl.Arith.Gt, Zpl.Prog.SInt 0, Zpl.Prog.SInt 1)

let rec find_for_var (is : I.instr list) : int option =
  List.fold_left
    (fun acc i ->
      match acc with
      | Some _ -> acc
      | None -> (
          match i with
          | I.For { var; _ } -> Some var
          | I.Repeat (b, _) -> find_for_var b
          | I.If (_, a, b) -> (
              match find_for_var a with
              | Some _ as v -> v
              | None -> find_for_var b)
          | _ -> None))
    None is

let test_prune_infeasible_branch () =
  (* protocol violation under a statically-false guard: the unpruned
     checkers walk both arms and report it; with ~prune:true the
     interval domain proves the arm infeasible and the schedule is
     accepted — the pruned and unpruned path sets genuinely differ *)
  let ir = fixture () in
  let ir' = { ir with I.code = ir.I.code @ [ I.If (never, [ stray_dn ], []) ] } in
  (match S.check ir' with
  | [] -> Alcotest.fail "unpruned check accepted the guarded violation"
  | ds ->
      Alcotest.(check bool) "protocol fired unpruned" true
        (List.mem S.Protocol (checkers ds)));
  Alcotest.(check (list string)) "pruned accepts" []
    (List.map S.diag_to_string (S.check ~prune:true ir'))

let test_prune_keeps_live_arm () =
  (* a decided-true guard: pruning must still check the live arm *)
  let always = Zpl.Prog.SCompare (Zpl.Arith.Gt, Zpl.Prog.SInt 1, Zpl.Prog.SInt 0) in
  let ir = fixture () in
  let ir' =
    { ir with I.code = ir.I.code @ [ I.If (always, [ stray_dn ], []) ] }
  in
  List.iter
    (fun prune ->
      match S.check ~prune ir' with
      | [] ->
          Alcotest.failf "live arm not checked (prune=%b)" prune
      | ds ->
          Alcotest.(check bool) "protocol fired" true
            (List.mem S.Protocol (checkers ds)))
    [ false; true ]

let test_prune_undecided_guard_reported () =
  (* guard on the loop variable, whose interval [1,3] leaves t > 2
     undecided: pruning must keep both arms, so the violation is
     reported either way (precision-only contract) *)
  let ir = fixture () in
  let var =
    match find_for_var ir.I.code with
    | Some v -> v
    | None -> Alcotest.fail "fixture lost its for loop"
  in
  let undecided =
    Zpl.Prog.SCompare (Zpl.Arith.Gt, Zpl.Prog.SVar var, Zpl.Prog.SInt 2)
  in
  let ir' =
    { ir with
      I.code =
        insert_after_first (is_comm I.SV 2)
          (I.If (undecided, [ stray_dn ], []))
          ir.I.code }
  in
  List.iter
    (fun prune ->
      match S.check ~prune ir' with
      | [] -> Alcotest.failf "undecided guard pruned away (prune=%b)" prune
      | ds ->
          Alcotest.(check bool) "protocol fired" true
            (List.mem S.Protocol (checkers ds)))
    [ false; true ]

let test_prune_zero_trip_loop () =
  (* [for i := 1 to 0 do DN(x0) end] appended to jacobi: the body never
     runs, so pruning must not check it — the head test is decided
     false on entry *)
  let ir = jacobi_2x2 () in
  let zero_trip =
    I.For
      { var = 0;
        lo = Zpl.Prog.SInt 1;
        hi = Zpl.Prog.SInt 0;
        step = 1;
        body = [ stray_dn ] }
  in
  let ir' = { ir with I.code = ir.I.code @ [ zero_trip ] } in
  (match S.check ir' with
  | [] -> Alcotest.fail "unpruned check accepted the zero-trip body"
  | ds ->
      Alcotest.(check bool) "protocol fired unpruned" true
        (List.mem S.Protocol (checkers ds)));
  Alcotest.(check (list string)) "pruned accepts" []
    (List.map S.diag_to_string (S.check ~prune:true ir'))

let test_prune_grid_unchanged () =
  (* on the real benchmark grid (no infeasible branches) pruning must
     not change the verdict: everything stays clean *)
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      let prog = Programs.Suite.compile ~scale:`Test b in
      List.iter
        (fun (label, config, _lib) ->
          let ir = Opt.Passes.compile config prog in
          match S.check ~prune:true ir with
          | [] -> ()
          | ds ->
              Alcotest.failf "%s [%s] with pruning:\n%s"
                b.Programs.Bench_def.name label
                (String.concat "\n" (List.map S.diag_to_string ds)))
        Report.Experiment.paper_rows)
    Programs.Suite.all

(* ------------------------------------------------------------------ *)
(* End-of-program protocol check in straight-line code                 *)
(* ------------------------------------------------------------------ *)

let test_incomplete_at_end () =
  let ir =
    Opt.Passes.compile Opt.Config.baseline
      (Zpl.Check.compile_string
         {|
constant n = 8;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction east = [0, 1];
var A, B : [BigR] float;
procedure main();
begin
  [BigR] A := Index1 * 0.5;
  [R] B := A@east;
end;
|})
  in
  let ir' = { ir with I.code = drop (is_comm I.SV 0) ir.I.code } in
  let ds = S.check ir' in
  (* the order checker also notices the SV-less rendezvous group; the
     end-of-program protocol diagnostic is the one under test here *)
  match List.filter (fun d -> d.S.d_checker = S.Protocol) ds with
  | [ d ] ->
      Alcotest.(check int) "position one past the end"
        (I.size_list ir'.I.code) d.S.d_pos;
      Alcotest.(check bool) "names the incompleteness" true
        (contains d.S.d_msg "never completes")
  | _ ->
      Alcotest.failf "expected exactly one protocol diagnostic, got:\n%s"
        (String.concat "\n" (List.map S.diag_to_string ds))

(* ------------------------------------------------------------------ *)
(* The full experiment grid is schedcheck-clean                        *)
(* ------------------------------------------------------------------ *)

let test_grid_clean () =
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      let prog = Programs.Suite.compile ~scale:`Test b in
      List.iter
        (fun (label, config, _lib) ->
          let ir = Opt.Passes.compile config prog in
          match S.check ir with
          | [] -> ()
          | ds ->
              Alcotest.failf "%s [%s]:\n%s" b.Programs.Bench_def.name label
                (String.concat "\n" (List.map S.diag_to_string ds)))
        Report.Experiment.paper_rows)
    Programs.Suite.all

let test_compile_check_flag () =
  (* ?check:true on the pass driver runs the verifier in-line, and a
     spec's [check] reaches it *)
  let prog = Zpl.Check.compile_string fixture_src in
  ignore (Opt.Passes.compile ~check:true Opt.Config.pl_cum prog);
  let spec = Run.Spec.(default fixture_src |> with_check true) in
  ignore (of_spec spec);
  ignore (Run.Spec.compile ~prog (Run.Spec.with_config Opt.Config.rr_only spec))

let test_check_exn_message () =
  let ir = fixture () in
  let ir' = { ir with I.code = drop (is_comm I.DN 0) ir.I.code } in
  match S.check_exn ir' with
  | () -> Alcotest.fail "expected check_exn to raise"
  | exception Failure msg ->
      Alcotest.(check bool) "headline" true
        (contains msg "schedule verification failed");
      Alcotest.(check bool) "transfer named" true (contains msg "x0:A@east");
      Alcotest.(check bool) "position named" true (contains msg "ir#")

(* ------------------------------------------------------------------ *)
(* Annotated dump and numbering agreement                              *)
(* ------------------------------------------------------------------ *)

let test_annotated_dump_numbering () =
  let ir =
    Opt.Passes.compile Opt.Config.pl_cum (Zpl.Check.compile_string fixture_src)
  in
  let dump = Ir.Printer.program_to_annotated_string ir in
  let lines = String.split_on_char '\n' dump in
  let indexed =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i -> int_of_string_opt (String.trim (String.sub l 0 i))
        | None -> None)
      lines
  in
  (* exactly the preorder indices 0 .. size-1, in order *)
  Alcotest.(check (list int)) "stable preorder indices"
    (List.init (I.size_list ir.I.code) Fun.id)
    indexed;
  Alcotest.(check bool) "transfers described" true
    (contains dump "DR(x0:A@east)")

(* ------------------------------------------------------------------ *)
(* Pass-named invariant failures (driver satellite)                    *)
(* ------------------------------------------------------------------ *)

let test_invariant_names_pass () =
  let prog = Zpl.Check.compile_string fixture_src in
  let code = Opt.Lower.lower prog in
  (* corrupt a transfer the way a buggy pass would *)
  (match Ir.Block.all_live code with
  | x :: _ -> x.Ir.Block.ready_pos <- x.Ir.Block.send_pos + 1
  | [] -> Alcotest.fail "fixture has no transfers");
  match Opt.Passes.optimize Opt.Config.baseline code with
  | _ -> Alcotest.fail "expected an invariant failure"
  | exception Failure msg ->
      Alcotest.(check bool) "names the stage" true (contains msg "after lower")

let () =
  Alcotest.run "schedcheck"
    [ ( "fixture",
        [ Alcotest.test_case "baseline schedule as expected" `Quick
            test_fixture_sanity ] );
      ( "mutations",
        [ Alcotest.test_case "drop DN -> protocol" `Quick test_drop_dn;
          Alcotest.test_case "drop SV -> protocol" `Quick test_drop_sv;
          Alcotest.test_case "duplicate SR -> protocol" `Quick
            test_duplicate_sr;
          Alcotest.test_case "SR above writer -> race" `Quick
            test_sr_above_writer;
          Alcotest.test_case "DN after reader -> race" `Quick
            test_dn_after_reader;
          Alcotest.test_case "delete needed transfer -> availability" `Quick
            test_delete_needed_transfer;
          Alcotest.test_case "DR uid order -> order" `Quick test_dr_uid_order;
          Alcotest.test_case "SR uid order -> order" `Quick test_sr_uid_order;
          Alcotest.test_case "split DN/SV pair -> order" `Quick
            test_split_dn_sv_pair;
          Alcotest.test_case "incomplete activation at end" `Quick
            test_incomplete_at_end;
          Alcotest.test_case "duplicate call opening a loop body -> order"
            `Quick test_loop_head_group;
          Alcotest.test_case "every dropped or duplicated call caught" `Quick
            test_mutation_grid ] );
      ( "pruning",
        [ Alcotest.test_case "infeasible arm: pruned accepts, unpruned reports"
            `Quick test_prune_infeasible_branch;
          Alcotest.test_case "live arm still checked under pruning" `Quick
            test_prune_keeps_live_arm;
          Alcotest.test_case "undecided guard reported either way" `Quick
            test_prune_undecided_guard_reported;
          Alcotest.test_case "zero-trip for: pruned accepts, unpruned reports"
            `Quick test_prune_zero_trip_loop;
          Alcotest.test_case "benchmark grid clean with pruning" `Quick
            test_prune_grid_unchanged ] );
      ( "pipeline",
        [ Alcotest.test_case "experiment grid is schedcheck-clean" `Quick
            test_grid_clean;
          Alcotest.test_case "compile ~check:true wiring" `Quick
            test_compile_check_flag;
          Alcotest.test_case "check_exn message" `Quick test_check_exn_message;
          Alcotest.test_case "annotated dump numbering" `Quick
            test_annotated_dump_numbering;
          Alcotest.test_case "invariant failures name the pass" `Quick
            test_invariant_names_pass ] ) ]
