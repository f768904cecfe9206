(** Property-based tests over randomly generated stencil programs: the
    central guarantee — every optimizer configuration preserves program
    semantics on every machine model — plus structural invariants of the
    passes and the halo arithmetic, exercised across random layouts. *)

open Commopt

(* ------------------------------------------------------------------ *)
(* Random mini-ZPL stencil programs                                    *)
(*                                                                     *)
(* Arrays A..D over [0..n+1]^2; statements assign over [1..n] with     *)
(* random rhs built from shifted refs (offsets in {-1,0,1}^2), scalars *)
(* and constants. All shifts stay in bounds by construction, and       *)
(* coefficients keep values bounded. Statements sit inside the outer   *)
(* time loop, optionally nested (two levels deep) under if / for /     *)
(* repeat — so the optimizer, the simulator and schedcheck all see     *)
(* communication inside every control shape, including loops the       *)
(* passes must treat as opaque and branches whose arms disagree. Some  *)
(* guards test a declared constant, so dead-branch elimination splices *)
(* their live arm into the code around it.                             *)
(* ------------------------------------------------------------------ *)

type rstmt = { lhs : int; terms : (int * (int * int)) list }

type guard =
  | Time of bool
      (** [t < 2] (true on the first outer iteration only) or [t >= 2] *)
  | Flag of bool
      (** [dbg = 0] or [dbg > 0] on the declared [constant dbg = 0]:
          decided statically, so dbe splices the live arm *)

type rnode =
  | RAssign of rstmt
  | RIf of guard * rnode list * rnode list  (** the else-arm may be empty *)
  | RFor of int * rnode list  (** [for sN := 1 to k do ... end] *)
  | RRepeat of int * rnode list
      (** [uN := 0; repeat uN := uN + 1; ... until uN >= k] *)

type rprog = { nodes : rnode list; loop_iters : int }

let arrays = [| "A"; "B"; "C"; "D" |]

let gen_offset = QCheck.Gen.(pair (int_range (-1) 1) (int_range (-1) 1))

let gen_stmt =
  QCheck.Gen.(
    let* lhs = int_range 0 3 in
    let* nterms = int_range 1 4 in
    let* terms = list_size (return nterms) (pair (int_range 0 3) gen_offset) in
    return { lhs; terms })

let gen_node =
  QCheck.Gen.(
    fix
      (fun self depth ->
        let leaf = map (fun s -> RAssign s) gen_stmt in
        if depth <= 0 then leaf
        else
          frequency
            [ (6, leaf);
              (1,
               let* c = oneofl [ Time true; Time false; Flag true; Flag false ] in
               let* a = list_size (int_range 1 2) (self (depth - 1)) in
               let* b = list_size (int_range 0 2) (self (depth - 1)) in
               return (RIf (c, a, b)));
              (1,
               let* k = int_range 1 2 in
               let* body = list_size (int_range 1 2) (self (depth - 1)) in
               return (RFor (k, body)));
              (1,
               let* k = int_range 1 2 in
               let* body = list_size (int_range 1 2) (self (depth - 1)) in
               return (RRepeat (k, body))) ])
      2)

let gen_prog =
  QCheck.Gen.(
    let* nnodes = int_range 2 6 in
    let* nodes = list_size (return nnodes) gen_node in
    let* loop_iters = int_range 1 3 in
    return { nodes; loop_iters })

let prog_to_source (p : rprog) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    {|
constant n = 8;
constant dbg = 0;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
var A, B, C, D : [BigR] float;
var t, s1, s2, u1, u2 : int;
procedure main();
begin
  [BigR] A := Index1 * 0.7 + Index2 * 0.3;
  [BigR] B := Index1 - Index2 * 0.5;
  [BigR] C := 1.0 + Index2 * 0.1;
  [BigR] D := 2.0 - Index1 * 0.1;
|};
  Buffer.add_string buf
    (Printf.sprintf "  for t := 1 to %d do\n" p.loop_iters);
  let sid = ref 0 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* [level] numbers the nested loop variables (s1/u1 under the time
     loop, s2/u2 one deeper) so shadowing never arises *)
  let rec emit ind level nodes = List.iter (emit_node ind level) nodes
  and emit_node ind level = function
    | RAssign s ->
        let coef = 1.0 /. float_of_int (List.length s.terms) in
        let terms =
          List.map
            (fun (a, (d0, d1)) ->
              if d0 = 0 && d1 = 0 then Printf.sprintf "%s" arrays.(a)
              else Printf.sprintf "%s@[%d,%d]" arrays.(a) d0 d1)
            s.terms
        in
        bpf "%s[R] %s := 0.4 * %s + %.6f * (%s) + 0.01 * %d;\n" ind
          arrays.(s.lhs) arrays.(s.lhs) (0.5 *. coef)
          (String.concat " + " terms) !sid;
        incr sid
    | RIf (c, a, b) ->
        bpf "%sif %s then\n" ind
          (match c with
          | Time true -> "t < 2"
          | Time false -> "t >= 2"
          | Flag true -> "dbg = 0"
          | Flag false -> "dbg > 0");
        emit (ind ^ "  ") level a;
        if b <> [] then begin
          bpf "%selse\n" ind;
          emit (ind ^ "  ") level b
        end;
        bpf "%send;\n" ind
    | RFor (k, body) ->
        bpf "%sfor s%d := 1 to %d do\n" ind level k;
        emit (ind ^ "  ") (level + 1) body;
        bpf "%send;\n" ind
    | RRepeat (k, body) ->
        bpf "%su%d := 0;\n" ind level;
        bpf "%srepeat\n" ind;
        bpf "%s  u%d := u%d + 1;\n" ind level level;
        emit (ind ^ "  ") (level + 1) body;
        bpf "%suntil u%d >= %d;\n" ind level k
  in
  emit "    " 1 p.nodes;
  Buffer.add_string buf "  end;\nend;\n";
  Buffer.contents buf

let arb_prog =
  QCheck.make ~print:(fun p -> prog_to_source p) gen_prog

let all_configs =
  Opt.Config.[ baseline; rr_only; cc_cum; pl_cum; pl_max_latency ]

(* ------------------------------------------------------------------ *)
(* Random scalar-heavy programs                                        *)
(*                                                                     *)
(* Float, int and bool scalars under random assignments: mixed         *)
(* int/float arithmetic, int overflow (large literals, repeated        *)
(* products), [/], [^] and intrinsics, [and]/[or]/[not] — nested under *)
(* [if], [for] over scalar bounds both ways (zero-trip included) and   *)
(* [repeat]. Array statements broadcast float and int scalars, and     *)
(* [max<<]/[min<<] reductions read array data back into scalar code    *)
(* ([+<<] would round differently per mesh, as any parallel sum does). *)
(* ------------------------------------------------------------------ *)

let gen_scalar_src : string QCheck.Gen.t =
  let open QCheck.Gen in
  let paren fmt = Printf.ksprintf (fun s -> "(" ^ s ^ ")") fmt in
  let fvar = oneofl [ "f1"; "f2"; "f3" ] and ivar = oneofl [ "i1"; "i2"; "i3" ] in
  let ilit =
    frequency
      [ (4, map (fun k -> paren "%d" k) (int_range (-5) 9));
        (1, oneofl [ "4611686018427387903"; "1000003"; "9007199254740993" ]) ]
  in
  let flit = map (fun x -> paren "%.3f" x) (float_range (-4.0) 4.0) in
  let bin ops a b = map3 (paren "%s %s %s") a (oneofl ops) b in
  let iexpr =
    fix
      (fun self d ->
        if d = 0 then oneof [ ivar; ilit ]
        else
          frequency
            [ (2, oneof [ ivar; ilit ]);
              (3, bin [ "+"; "-"; "*" ] (self (d - 1)) (self (d - 1)));
              (1, map (paren "-%s") (self (d - 1))) ])
      2
  in
  let fexpr =
    fix
      (fun self d ->
        let leaf = oneof [ fvar; flit; ivar; ilit ] in
        if d = 0 then leaf
        else
          let sub = self (d - 1) in
          frequency
            [ (2, leaf);
              (4, bin [ "+"; "-"; "*"; "/"; "^" ] sub (oneof [ sub; iexpr ]));
              (1, map (paren "-%s") sub);
              ( 2,
                map2 (Printf.sprintf "%s(%s)")
                  (oneofl
                     [ "abs"; "sqrt"; "exp"; "ln"; "sin"; "cos"; "tan"; "floor";
                       "sign" ])
                  sub );
              (1, map3 (Printf.sprintf "%s(%s, %s)") (oneofl [ "min"; "max" ]) sub sub) ])
      2
  in
  let num = oneof [ fexpr; iexpr ] in
  let bexpr =
    fix
      (fun self d ->
        let cmp = bin [ "<"; "<="; ">"; ">="; "="; "!=" ] num num in
        if d = 0 then oneof [ cmp; oneofl [ "b1"; "b2"; "true" ] ]
        else
          frequency
            [ (3, cmp);
              (1, oneofl [ "b1"; "b2" ]);
              (2, bin [ "and"; "or" ] (self (d - 1)) (self (d - 1)));
              (1, map (paren "not %s") (self (d - 1))) ])
      1
  in
  (* [outer]: the enclosing loop's variable, a bound for inner loops *)
  let bound outer =
    oneof (map string_of_int (int_range (-1) 3) :: List.map return outer)
  in
  let rec stmts ind level outer d : string t =
    map (String.concat "") (list_size (int_range 1 3) (stmt ind level outer d))
  and stmt ind level outer d : string t =
    let pf fmt = Printf.sprintf ("%s" ^^ fmt ^^ "\n") ind in
    let simple =
      [ (3, map2 (pf "%s := %s;") fvar fexpr);
        (3, map2 (pf "%s := %s;") ivar iexpr);
        (2, map2 (pf "%s := %s;") (oneofl [ "b1"; "b2" ]) bexpr);
        ( 1,
          map3 (pf "[R] %s := %s<< %s;") fvar (oneofl [ "max"; "min" ])
            (oneofl [ "A"; "(A * f2)"; "(B + i1)"; "(A@[0,1] - B)" ]) );
        ( 1,
          map2 (pf "[R] A := 0.5 * A + %s * 0.25 + %s;") fvar ivar );
        (1, map (pf "[R] B := 0.5 * (A@[0,1] + A@[1,0]) - %s;") num) ]
    in
    if d = 0 || level > 2 then frequency simple
    else
      let body = stmts (ind ^ "  ") (level + 1) outer (d - 1) in
      let k = Printf.sprintf "k%d" level in
      frequency
        (simple
        @ [ ( 1,
              map3
                (fun c a b -> pf "if %s then\n%s%selse\n%s%send;" c a ind b ind)
                bexpr body body );
            ( 1,
              map4
                (fun lo dir hi b -> pf "for %s := %s %s %s do\n%s%send;" k lo dir hi b ind)
                (bound outer) (oneofl [ "to"; "downto" ]) (bound outer)
                (stmts (ind ^ "  ") (level + 1) [ k ] (d - 1)) );
            ( 1,
              map2
                (fun k b ->
                  pf "r%d := 0;\n%srepeat\n%s%s  r%d := r%d + 1;\n%suntil r%d >= %d;"
                    level ind b ind level level ind level k)
                (int_range 1 3) body ) ])
  in
  map
    (fun body ->
      {|
constant n = 6;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
var A, B : [BigR] float;
var f1, f2, f3 : float;
var i1, i2, i3, k1, k2, r1, r2 : int;
var b1, b2 : bool;
procedure main();
begin
  [BigR] A := Index1 * 0.5 + Index2;
  [BigR] B := Index2 - Index1 * 0.25;
  f1 := 1.5; f2 := -0.75; i1 := 3; i2 := -2; b2 := true;
|}
      ^ body ^ "end;\n")
    (stmts "  " 1 [] 2)

(** A stencil program and a scalar-heavy one, checked by the same
    property. *)
let arb_both =
  QCheck.make
    ~print:(fun (p, s) -> prog_to_source p ^ "\n-- and --\n" ^ s)
    QCheck.Gen.(pair gen_prog gen_scalar_src)

let bits = Int64.bits_of_float

(** What a run leaves: every declared cell's bits, and every scalar's
    but the [for] variables' (a flat loop variable ends one step past
    its bound, the oracle's at its bound; the checker scopes it to its
    loop, so nothing reads it afterwards). *)
let outcome (prog : Zpl.Prog.t) store_of (env : Runtime.Values.value array) =
  let cells =
    Array.map
      (fun (info : Zpl.Prog.array_info) ->
        let s = store_of info.a_id in
        let cells = ref [] in
        Zpl.Region.iter info.a_region (fun pt ->
            cells := bits (Runtime.Store.get s pt) :: !cells);
        !cells)
      prog.Zpl.Prog.arrays
  in
  let rec loop_vars acc = function
    | Zpl.Prog.For { var; body; _ } -> List.fold_left loop_vars (var :: acc) body
    | Zpl.Prog.Repeat (body, _) -> List.fold_left loop_vars acc body
    | Zpl.Prog.If (_, a, b) ->
        List.fold_left loop_vars (List.fold_left loop_vars acc a) b
    | Zpl.Prog.AssignA _ | Zpl.Prog.AssignS _ | Zpl.Prog.ReduceS _ -> acc
  in
  let skip = List.fold_left loop_vars [] prog.Zpl.Prog.body in
  let scalars =
    List.filteri (fun i _ -> not (List.mem i skip)) (Array.to_list env)
    |> List.map (function
         | Runtime.Values.VFloat f -> bits f
         | Runtime.Values.VInt i -> Int64.of_int i
         | Runtime.Values.VBool b -> if b then 1L else 0L)
  in
  (cells, scalars)

let oracle_outcome prog =
  let t = Runtime.Seqexec.run prog in
  outcome prog
    (Array.get t.Runtime.Seqexec.stores)
    (Runtime.Values.read_all t.Runtime.Seqexec.scalars t.Runtime.Seqexec.slots)

let engine_outcome prog (ir : Ir.Instr.program) lib ~pr ~pc =
  let res =
    Sim.Engine.run
      (Sim.Engine.of_plans
         (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib ~pr ~pc
            (Ir.Flat.flatten ir)))
  in
  let e = res.Sim.Engine.engine in
  outcome prog (Sim.Engine.gather e) (Sim.Engine.final_env e)

(** The headline property: every optimization level, on both T3D
    libraries, computes bit-identical arrays and scalars to the
    sequential oracle — on a stencil program and on a scalar-heavy one
    per case. *)
let prop_optimizer_preserves_semantics =
  QCheck.Test.make ~name:"optimizer preserves semantics" ~count:30 arb_both
    (fun (p, scalar_src) ->
      List.for_all
        (fun src ->
          let prog = Zpl.Check.compile_string src in
          let want = oracle_outcome prog in
          List.for_all
            (fun config ->
              let ir = Opt.Passes.compile config prog in
              List.for_all
                (fun lib -> engine_outcome prog ir lib ~pr:2 ~pc:2 = want)
                [ Machine.T3d.pvm; Machine.T3d.shmem ])
            all_configs)
        [ prog_to_source p; scalar_src ])

(** Counts behave monotonically under the passes. *)
let prop_counts_monotone =
  QCheck.Test.make ~name:"static counts monotone" ~count:60 arb_prog (fun p ->
      let prog = Zpl.Check.compile_string (prog_to_source p) in
      let stat config = Ir.Count.static_count (Opt.Passes.compile config prog) in
      let base = stat Opt.Config.baseline in
      let rr = stat Opt.Config.rr_only in
      let cc = stat Opt.Config.cc_cum in
      let pl = stat Opt.Config.pl_cum in
      let maxlat = stat Opt.Config.pl_max_latency in
      rr <= base && cc <= rr && pl = cc && cc <= maxlat && maxlat <= rr)

(** Combining never changes the total member messages (volume proxy). *)
let prop_members_preserved =
  QCheck.Test.make ~name:"cc preserves member messages" ~count:60 arb_prog
    (fun p ->
      let prog = Zpl.Check.compile_string (prog_to_source p) in
      let members config =
        Ir.Count.static_member_count (Opt.Passes.compile config prog)
      in
      members Opt.Config.rr_only = members Opt.Config.cc_cum
      && members Opt.Config.rr_only = members Opt.Config.pl_cum)

(** Every schedule the pipeline emits — any configuration, any generated
    control shape — passes all four schedcheck checkers. Together with
    the mutation suite (test_schedcheck.ml), this keeps the verifier
    exactly calibrated: silent on everything the optimizer produces,
    loud on everything it must never produce. *)
let prop_schedcheck_accepts =
  QCheck.Test.make ~name:"schedcheck accepts every config" ~count:40 arb_prog
    (fun p ->
      let prog = Zpl.Check.compile_string (prog_to_source p) in
      List.for_all
        (fun config ->
          Analysis.Schedcheck.check (Opt.Passes.compile config prog) = [])
        all_configs)

(** Pass invariants hold on arbitrary inputs (would raise otherwise). *)
let prop_invariants =
  QCheck.Test.make ~name:"block invariants after passes" ~count:100 arb_prog
    (fun p ->
      let prog = Zpl.Check.compile_string (prog_to_source p) in
      List.iter
        (fun config ->
          Ir.Block.check_invariants
            (Opt.Passes.optimize config (Opt.Lower.lower prog)))
        all_configs;
      true)

(** On a uniform machine with PVM, optimized code is never slower —
    beyond pipelining's completion-wait bookkeeping, a fixed cost per
    dynamic transfer instance (measured under 6e-6 simulated seconds on
    the T3D model). On tiny random programs (a handful of transfers, one
    iteration, almost no compute) that overhead can't amortize, so the
    bound grants it explicitly: relative tolerance plus a per-instance
    allowance. Real benchmarks clear the plain inequality (test_report). *)
let prop_never_slower =
  QCheck.Test.make ~name:"optimized <= baseline time (PVM)" ~count:20 arb_prog
    (fun p ->
      let prog = Zpl.Check.compile_string (prog_to_source p) in
      let time config =
        let res =
          Sim.Engine.run
            (Sim.Engine.of_plans
               (Sim.Engine.plan ~machine:Machine.T3d.machine
                  ~lib:Machine.T3d.pvm ~pr:2 ~pc:2
                  (Ir.Flat.flatten (Opt.Passes.compile config prog))))
        in
        (res.Sim.Engine.time, Sim.Stats.dynamic_count res.Sim.Engine.stats)
      in
      let base, dyn = time Opt.Config.baseline in
      let pl, _ = time Opt.Config.pl_cum in
      pl <= (base *. 1.001) +. (1e-5 *. float_of_int dyn))

(* ------------------------------------------------------------------ *)
(* Abstract interpretation soundness                                    *)
(* ------------------------------------------------------------------ *)

(** Every concrete scalar value ever written during a sequential run —
    assignments, reductions, and loop-variable updates, observed through
    the {!Runtime.Seqexec} [on_scalar] hook — lies inside the abstract
    hull {!Analysis.Absint} computes for that scalar, on every
    optimization config (the analysis runs on the final IR, which the
    configs reshape). The final environment is checked against the hull
    too, since a scalar's last value is its initial value or some write. *)
let prop_absint_hull_sound =
  QCheck.Test.make ~name:"absint hull bounds every scalar trace" ~count:30
    arb_both (fun (p, scalar_src) ->
      List.for_all (fun src ->
      let prog = Zpl.Check.compile_string src in
      List.for_all
        (fun config ->
          let ir = Opt.Passes.compile config prog in
          let s = Analysis.Absint.analyze ir in
          let escapes = ref [] in
          let to_float = function
            | Runtime.Values.VFloat f -> f
            | Runtime.Values.VInt i -> float_of_int i
            | Runtime.Values.VBool b -> if b then 1.0 else 0.0
          in
          let on_scalar id v =
            let f = to_float v in
            if not (Analysis.Absint.contains s.Analysis.Absint.s_hull.(id) f)
            then escapes := (id, f) :: !escapes
          in
          let t = Runtime.Seqexec.run ~on_scalar prog in
          let final =
            Runtime.Values.read_all t.Runtime.Seqexec.scalars
              t.Runtime.Seqexec.slots
          in
          Array.iteri
            (fun id v ->
              if
                not
                  (Analysis.Absint.contains s.Analysis.Absint.s_hull.(id)
                     (to_float v))
              then escapes := (id, to_float v) :: !escapes)
            final;
          if !escapes <> [] then
            QCheck.Test.fail_reportf "escaped hull under %s: %s"
              (Opt.Config.name config)
              (String.concat ", "
                 (List.map
                    (fun (id, f) ->
                      Printf.sprintf "%s=%g"
                        (Zpl.Prog.scalar_info prog id).Zpl.Prog.s_name f)
                    !escapes))
          else true)
        all_configs)
        [ prog_to_source p; scalar_src ])

(** Commvol's static bounds and exact predictions agree with the engine
    on random control shapes across all six paper rows: per-processor
    message/byte counters match the coefficient model exactly, static
    intervals bracket every measured value, and the paper's dynamic
    count is predicted exactly ([Run.Predict.verify] checks all of it). *)
let prop_commvol_engine_validated =
  QCheck.Test.make ~name:"commvol bounds validated by the engine" ~count:10
    arb_prog (fun p ->
      let src = prog_to_source p in
      List.for_all
        (fun (label, config, lib) ->
          let spec =
            Run.Spec.(
              default src |> with_config config |> with_lib lib
              |> with_mesh 2 2)
          in
          let t = Run.Predict.analyze spec in
          match Run.Predict.verify t with
          | [] -> true
          | errs ->
              QCheck.Test.fail_reportf "[%s]:\n%s" label
                (String.concat "\n" errs))
        Report.Experiment.paper_rows)

(* ------------------------------------------------------------------ *)
(* Halo duality across random layouts and offsets                      *)
(* ------------------------------------------------------------------ *)

let arb_halo_case =
  QCheck.make
    ~print:(fun (pr, pc, n, (d0, d1)) ->
      Printf.sprintf "mesh %dx%d, n=%d, off=(%d,%d)" pr pc n d0 d1)
    QCheck.Gen.(
      let* pr = int_range 1 4 in
      let* pc = int_range 1 4 in
      let* n = int_range 8 20 in
      let* off = pair (int_range (-2) 2) (int_range (-2) 2) in
      return (pr, pc, n, off))

let prop_halo_duality =
  QCheck.Test.make ~name:"halo send/recv duality" ~count:200 arb_halo_case
    (fun (pr, pc, n, off) ->
      QCheck.assume (off <> (0, 0));
      let space = Zpl.Region.make [ (0, n); (0, n) ] in
      let l = Runtime.Layout.make ~pr ~pc space in
      let info =
        { Zpl.Prog.a_id = 0; a_name = "A"; a_region = space; a_rank = 2 }
      in
      List.for_all
        (fun p ->
          List.for_all
            (fun (rp : Runtime.Halo.piece) ->
              let sends = Runtime.Halo.send_pieces l info ~p:rp.partner ~off in
              List.exists
                (fun (s : Runtime.Halo.piece) ->
                  s.partner = p && Zpl.Region.equal s.rect rp.rect)
                sends)
            (Runtime.Halo.recv_pieces l info ~p ~off))
        (List.init (Runtime.Layout.nprocs l) Fun.id))

(** Every ghost cell needed is covered exactly once by the recv pieces. *)
let prop_halo_covers =
  QCheck.Test.make ~name:"halo pieces tile the ghost region" ~count:200
    arb_halo_case (fun (pr, pc, n, off) ->
      QCheck.assume (off <> (0, 0));
      let space = Zpl.Region.make [ (0, n); (0, n) ] in
      let l = Runtime.Layout.make ~pr ~pc space in
      let info =
        { Zpl.Prog.a_id = 0; a_name = "A"; a_region = space; a_rank = 2 }
      in
      List.for_all
        (fun p ->
          let own = Runtime.Halo.owned_of l info p in
          if Zpl.Region.is_empty own then true
          else begin
            let own2 = Zpl.Region.(make [ ((dim own 0).lo, (dim own 0).hi);
                                          ((dim own 1).lo, (dim own 1).hi) ]) in
            let needed =
              Zpl.Region.inter (Zpl.Region.shift own2 [| fst off; snd off |]) space
            in
            let pieces = Runtime.Halo.recv_pieces l info ~p ~off in
            (* count coverage of every needed-but-not-owned cell *)
            let ok = ref true in
            Zpl.Region.iter needed (fun pt ->
                let covers =
                  List.length
                    (List.filter
                       (fun (pc_ : Runtime.Halo.piece) ->
                         Zpl.Region.contains_point pc_.rect pt)
                       pieces)
                in
                let owned_here = Zpl.Region.contains_point own2 pt in
                if owned_here then (if covers <> 0 then ok := false)
                else if covers <> 1 then ok := false);
            !ok
          end)
        (List.init (Runtime.Layout.nprocs l) Fun.id))

(* ------------------------------------------------------------------ *)
(* Row-compiled kernels vs the per-point oracle                        *)
(*                                                                     *)
(* Direct-AST differential tests: random regions of rank 1..3, random  *)
(* offsets in {-1,0,1}^rank, random expression trees. The row path     *)
(* must be bitwise identical to the per-point fallback — including     *)
(* self-referencing statements that exercise the buffered write modes. *)
(* ------------------------------------------------------------------ *)

let narrays = 3


(* Deterministic pseudo-random fill so failures reproduce from the seed. *)
let fill_store (s : Runtime.Store.t) seed =
  Runtime.Store.fill_flat s (fun i ->
      (float_of_int (((i * 7919) + (seed * 104729)) mod 1999) /. 97.0) -. 10.0)

let grow1 (r : Zpl.Region.t) : Zpl.Region.t =
  Array.map
    (fun { Zpl.Region.lo; hi } -> { Zpl.Region.lo = lo - 1; hi = hi + 1 })
    r

(* The special values of the operand-order argument: about one cell in
   eight holds a quiet NaN whose payload names its array (so a result's
   payload tells which operand it came from), a negative zero, or an
   infinity of either sign; the rest is [fill_store]'s. *)
let fill_special (s : Runtime.Store.t) aid seed =
  let nan =
    Int64.(float_of_bits (logor 0x7ff8000000000000L (of_int (aid + 1))))
  in
  Runtime.Store.fill_flat s (fun i ->
      let h = ((i * 7919) + (seed * 104729)) mod 1999 in
      if h mod 8 <> 0 then (float_of_int h /. 97.0) -. 10.0
      else
        match h / 8 mod 4 with
        | 0 -> nan
        | 1 -> -0.0
        | 2 -> infinity
        | _ -> neg_infinity)

let mk_store ?(special = false) aid rank (alloc : Zpl.Region.t) seed =
  let info =
    { Zpl.Prog.a_id = aid; a_name = Printf.sprintf "S%d" aid;
      a_region = alloc; a_rank = rank }
  in
  let s = Runtime.Store.make info ~owned:alloc ~fringe:0 in
  if special then fill_special s aid (seed + aid) else fill_store s (seed + aid);
  s

type kcase = {
  krank : int;
  kregion : Zpl.Region.t;  (** iteration region; stores alloc [grow1] of it *)
  klhs : int;
  krhs : Zpl.Prog.aexpr;
  kseed : int;
  kspecial : bool;
      (** seed the stores with {!fill_special}, and the float scalar
          with a NaN of its own payload *)
}

let gen_aexpr rank =
  QCheck.Gen.(
    let gen_off = array_size (return rank) (int_range (-1) 1) in
    let leaf =
      frequency
        [ (2,
           map (fun i -> Zpl.Prog.AConst (float_of_int i /. 8.0))
             (int_range (-16) 16));
          (1, map (fun d -> Zpl.Prog.AIndex d) (int_range 0 (rank - 1)));
          (1, map (fun i -> Zpl.Prog.AScalar i) (int_range 0 1));
          (4,
           map2
             (fun a off -> Zpl.Prog.ARef (a, off))
             (int_range 0 (narrays - 1))
             gen_off) ]
    in
    fix
      (fun self depth ->
        if depth <= 0 then leaf
        else
          frequency
            [ (2, leaf);
              (4,
               map3
                 (fun op a b -> Zpl.Prog.AArith (op, a, b))
                 (* every arithmetic operator of the operator table *)
                 (oneofl
                    (List.filter_map
                       (function _, Zpl.Arith.Arith op -> Some op | _ -> None)
                       Zpl.Arith.operators))
                 (self (depth - 1)) (self (depth - 1)));
              (1,
               map (fun a -> Zpl.Prog.ANeg a) (self (depth - 1)));
              (* every entry of the intrinsic table *)
              ( 2,
                oneofl Zpl.Arith.intrinsics >>= function
                | _, Zpl.Arith.Unary u ->
                    map
                      (fun a -> Zpl.Prog.ACall (Zpl.Arith.Call1 (u, a)))
                      (self (depth - 1))
                | _, Zpl.Arith.Binary b ->
                    map2
                      (fun x y -> Zpl.Prog.ACall (Zpl.Arith.Call2 (b, x, y)))
                      (self (depth - 1)) (self (depth - 1)) ) ])
      3)

let gen_kregion rank =
  QCheck.Gen.(
    let* dims = list_size (return rank) (pair (int_range (-2) 2) (int_range 1 5)) in
    return (Zpl.Region.make (List.map (fun (lo, sz) -> (lo, lo + sz - 1)) dims)))

let gen_kcase =
  QCheck.Gen.(
    let* krank = int_range 1 3 in
    let* kregion = gen_kregion krank in
    let* klhs = int_range 0 (narrays - 1) in
    let* krhs = gen_aexpr krank in
    let* kseed = int_range 0 9999 in
    return { krank; kregion; klhs; krhs; kseed; kspecial = false })

let arb_kcase =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "rank %d, region %s, S%d := %s, seed %d%s" c.krank
        (Zpl.Region.to_string c.kregion)
        c.klhs
        (Zpl.Prog.show_aexpr c.krhs)
        c.kseed
        (if c.kspecial then ", special values" else ""))
    gen_kcase

(* scalar 0 is a float, scalar 1 an int the kernels convert *)
let kscalars = Runtime.Values.layout [| Zpl.Ast.TFloat; Zpl.Ast.TInt |]
let kslots ~special =
  let f = if special then Int64.float_of_bits 0x7ff8000000000abcL else 0.5 in
  { Runtime.Values.f = [| f |]; i = [| -3 |] }

(* Plans are store-agnostic: compile against [stores] (any store of the
   right geometry works), then bind the actual stores and scalars into
   an env once every plan of the set is built. *)
let kcase_stores (c : kcase) =
  let alloc = grow1 c.kregion in
  let stores =
    Array.init narrays (fun aid ->
        mk_store ~special:c.kspecial aid c.krank alloc c.kseed)
  in
  let ws = Runtime.Kernel.make_ws kscalars in
  let rc = { Runtime.Kernel.rstore = (fun aid -> stores.(aid)); rws = ws } in
  let mkenv () =
    Runtime.Kernel.make_env ~stores ~slots:(kslots ~special:c.kspecial)
      (Runtime.Kernel.make_workspace (Runtime.Kernel.ws_spec ws))
  in
  (stores, rc, mkenv)

let exec_kcase ~row (c : kcase) =
  let stores, rc, mkenv = kcase_stores c in
  let a =
    { Zpl.Prog.region = Zpl.Prog.dregion_of_region c.kregion;
      lhs = c.klhs; rhs = c.krhs; flops = 0;
      loc = Zpl.Loc.dummy }
  in
  let plan = Runtime.Kernel.plan_assign ~row rc a in
  let cells =
    Runtime.Kernel.exec_plan plan ~env:(mkenv ()) ~lhs:stores.(c.klhs)
      ~bounds:(Zpl.Region.bounds c.kregion)
  in
  ( cells,
    Array.map
      (fun (s : Runtime.Store.t) -> Array.map bits (Runtime.Store.to_array s))
      stores )

let reduce_kcase ~row (c : kcase) op =
  let _, rc, mkenv = kcase_stores c in
  let r =
    { Zpl.Prog.r_lhs = 0; r_op = op;
      r_region = Zpl.Prog.dregion_of_region c.kregion;
      r_rhs = c.krhs; r_flops = 0; r_loc = Zpl.Loc.dummy }
  in
  let plan = Runtime.Kernel.plan_reduce ~row rc r in
  bits
    (Runtime.Kernel.exec_rplan plan ~env:(mkenv ())
       ~bounds:(Zpl.Region.bounds c.kregion) op)

(** Row-compiled assignments produce bitwise-identical stores and cell
    counts to the per-point interpreter, across self-references (both
    buffered write modes), fallbacks and all ranks. *)
let prop_row_kernel_bitwise =
  QCheck.Test.make ~name:"row kernels == per-point kernels (bitwise)"
    ~count:300 arb_kcase (fun c ->
      exec_kcase ~row:true c = exec_kcase ~row:false c)

(** Same for reductions: identical partials (bitwise). *)
let prop_row_reduce_bitwise =
  QCheck.Test.make ~name:"row reductions == per-point (bitwise)" ~count:200
    (QCheck.pair arb_kcase
       (QCheck.oneofl ~print:Zpl.Ast.show_redop
          Zpl.Ast.[ RSum; RMax; RMin; RProd ]))
    (fun (c, op) -> reduce_kcase ~row:true c op = reduce_kcase ~row:false c op)

(** A left-associated +/- chain of 2-6 shifted refs, the shape of
    TOMCATV's stencil averages. *)
let gen_chain rank =
  QCheck.Gen.(
    let ref_ =
      map2
        (fun a off -> Zpl.Prog.ARef (a, off))
        (int_range 0 (narrays - 1))
        (array_size (return rank) (int_range (-1) 1))
    in
    let* base = ref_ in
    let* rest = list_size (int_range 1 5) (pair (oneofl [ `Add; `Sub ]) ref_) in
    return
      (List.fold_left (fun e (op, r) -> Zpl.Prog.AArith (op, e, r)) base rest))

(** Workspace slots number per statement and one workspace serves a
    whole plan set: statements of different ranks, shapes and
    expressions (random ones, and chains of different widths alone or
    two to a statement), compiled into one [ws] and run back to back
    (twice, so the second round finds buffers grown by others) on one
    workspace, give exactly what the per-point path gives. *)
let prop_shared_workspace =
  let gen_stmt =
    QCheck.Gen.(
      let* c = gen_kcase in
      let* krhs =
        frequency
          [ (2, return c.krhs);
            (2, gen_chain c.krank);
            (1,
             map2
               (fun a b -> Zpl.Prog.AArith (`Mul, a, b))
               (gen_chain c.krank) (gen_chain c.krank)) ]
      in
      return { c with krhs })
  in
  QCheck.Test.make ~name:"back-to-back statements on one workspace == per-point"
    ~count:150
    (QCheck.make
       ~print:(fun cs ->
         String.concat "; "
           (List.map
              (fun (c : kcase) ->
                Printf.sprintf "%s S%d := %s"
                  (Zpl.Region.to_string c.kregion)
                  c.klhs
                  (Zpl.Prog.show_aexpr c.krhs))
              cs))
       QCheck.Gen.(list_size (int_range 2 6) gen_stmt))
    (fun cs ->
      let run ~row =
        let ws = Runtime.Kernel.make_ws kscalars in
        let compiled =
          List.map
            (fun (c : kcase) ->
              let alloc = grow1 c.kregion in
              let stores =
                Array.init narrays (fun aid ->
                    mk_store aid c.krank alloc c.kseed)
              in
              let rc =
                { Runtime.Kernel.rstore = (fun aid -> stores.(aid)); rws = ws }
              in
              let dr = Zpl.Prog.dregion_of_region c.kregion in
              let a =
                { Zpl.Prog.region = dr; lhs = c.klhs; rhs = c.krhs; flops = 0;
      loc = Zpl.Loc.dummy }
              in
              let r =
                { Zpl.Prog.r_lhs = 0; r_op = Zpl.Ast.RSum; r_region = dr;
                  r_rhs = c.krhs; r_flops = 0; r_loc = Zpl.Loc.dummy }
              in
              ( c,
                stores,
                Runtime.Kernel.plan_assign ~row rc a,
                Runtime.Kernel.plan_reduce ~row rc r ))
            cs
        in
        let w = Runtime.Kernel.make_workspace (Runtime.Kernel.ws_spec ws) in
        let round () =
          List.map
            (fun ((c : kcase), stores, plan, rplan) ->
              let env =
                Runtime.Kernel.make_env ~stores ~slots:(kslots ~special:false) w
              in
              let partial =
                Runtime.Kernel.exec_rplan rplan ~env ~bounds:(Zpl.Region.bounds c.kregion)
                  Zpl.Ast.RSum
              in
              let cells =
                Runtime.Kernel.exec_plan plan ~env ~lhs:stores.(c.klhs)
                  ~bounds:(Zpl.Region.bounds c.kregion)
              in
              ( cells,
                bits partial,
                Array.map
                  (fun (s : Runtime.Store.t) ->
                    Array.map bits (Runtime.Store.to_array s))
                  stores ))
            compiled
        in
        let first = round () in
        first @ round ()
      in
      run ~row:true = run ~row:false)

(** A one-rect wire plan — rect [rect] of array 0 of [s] — and a
    staging buffer sized for it. *)
let wire1 (s : Runtime.Store.t) rect =
  let plan = Runtime.Wireplan.build ~stores:[| s |] [ (0, rect) ] in
  (plan, Runtime.Store.alloc_buf (Runtime.Wireplan.cells plan))

(** A wire plan packs a rectangle row-major, the same values as a
    per-point reference, and unpacking writes exactly the rectangle,
    leaving every other cell alone. *)
let prop_wireplan_rows =
  QCheck.Test.make ~name:"wireplan row path == per-point"
    ~count:300
    (QCheck.make
       ~print:(fun (alloc, rect, seed) ->
         Printf.sprintf "alloc %s, rect %s, seed %d"
           (Zpl.Region.to_string alloc) (Zpl.Region.to_string rect) seed)
       QCheck.Gen.(
         let* rank = int_range 1 3 in
         let* alloc = gen_kregion rank in
         let* rect =
           Array.to_list alloc
           |> List.map (fun { Zpl.Region.lo; hi } ->
                  let* l = int_range lo hi in
                  let* h = int_range l hi in
                  return (l, h))
           |> flatten_l
         in
         let* seed = int_range 0 9999 in
         return (alloc, Zpl.Region.make rect, seed)))
    (fun (alloc, rect, seed) ->
      let rank = Zpl.Region.rank alloc in
      let s = mk_store 0 rank alloc seed in
      (* reference pack, point by point *)
      let ref_buf = Array.make (Zpl.Region.size rect) 0.0 in
      let k = ref 0 in
      Zpl.Region.iter rect (fun p ->
          ref_buf.(!k) <- Runtime.Store.get s p;
          incr k);
      let plan, buf = wire1 s rect in
      Runtime.Wireplan.pack plan [| s |] buf;
      let fast = Runtime.Store.buf_to_array buf in
      (* reference unpack into a copy of a second store *)
      let s2 = mk_store 0 rank alloc (seed + 17) in
      let expected = Runtime.Store.to_array s2 in
      let k = ref 0 in
      Zpl.Region.iter rect (fun p ->
          expected.(Runtime.Store.index s2 p) <- fast.(!k);
          incr k);
      Runtime.Wireplan.unpack plan [| s2 |] buf;
      Array.map bits fast = Array.map bits ref_buf
      && Array.map bits (Runtime.Store.to_array s2) = Array.map bits expected)

let seqexec_fingerprint ~row_path prog =
  let t = Runtime.Seqexec.run ~row_path prog in
  ( t.Runtime.Seqexec.steps,
    t.Runtime.Seqexec.cells,
    Array.map
      (fun (s : Runtime.Store.t) -> Array.map bits (Runtime.Store.to_array s))
      t.Runtime.Seqexec.stores )


(** [gen_chain] with row-invariant coefficients: any term may be
    [c * ref] with [c] a scalar or a constant (a NaN among them), and
    the chain may sit under one on either side. *)
let gen_scaled_chain rank =
  QCheck.Gen.(
    let coeff =
      oneofl
        [ Zpl.Prog.AScalar 0; AScalar 1; AConst 0.25;
          AConst (Int64.float_of_bits 0x7ff8000000000123L) ]
    in
    let term =
      let* a = int_range 0 (narrays - 1) in
      let* off = array_size (return rank) (int_range (-1) 1) in
      let r = Zpl.Prog.ARef (a, off) in
      frequency
        [ (1, return r); (1, map (fun c -> Zpl.Prog.AArith (`Mul, c, r)) coeff) ]
    in
    let* base = term in
    let* rest = list_size (int_range 1 5) (pair (oneofl [ `Add; `Sub ]) term) in
    let e =
      List.fold_left (fun e (op, t) -> Zpl.Prog.AArith (op, e, t)) base rest
    in
    let* op = oneofl [ `Add; `Sub; `Mul; `Div ] in
    let* c = coeff in
    oneofl [ e; Zpl.Prog.AArith (op, c, e); Zpl.Prog.AArith (op, e, c) ])

(** Stores seeded with special values ({!fill_special}) and a NaN float
    scalar: every row kernel still gives the per-point path's bits, for
    assignments and sum reductions. Where two NaNs meet, the result's
    payload depends on operand order, so this pins that each composed
    kernel applies the per-point path's operations in its order — the
    left coefficient of [c * A@d] included. *)
let prop_row_kernel_special =
  let gen =
    QCheck.Gen.(
      let* c = gen_kcase in
      let* krhs =
        frequency
          [ (2, return c.krhs); (1, gen_chain c.krank);
            (2, gen_scaled_chain c.krank) ]
      in
      return { c with krhs; kspecial = true })
  in
  QCheck.Test.make ~name:"row kernels == per-point on special values (bitwise)"
    ~count:300
    (QCheck.set_gen gen arb_kcase)
    (fun c ->
      exec_kcase ~row:true c = exec_kcase ~row:false c
      && reduce_kcase ~row:true c Zpl.Ast.RSum
         = reduce_kcase ~row:false c Zpl.Ast.RSum)

(* ------------------------------------------------------------------ *)
(* Shared neighbor sums                                                *)
(*                                                                     *)
(* The general generator above writes the same arrays it reads. This   *)
(* one writes only E/F/G and draws each right-hand side from a 4-entry *)
(* pool of scaled neighbor sums over A..D — the TOMCATV solver shape.  *)
(* ------------------------------------------------------------------ *)

let nsum_lhs = [| "E"; "F"; "G" |]

let nsum_pool =
  [| "(A@[0,1] + A@[0,-1])"; "(B@[1,0] + B@[-1,0])";
     "(C@[0,1] + C@[1,0])"; "(D@[-1,0] + D@[0,-1])" |]

type cprog = { cterms : (int * int) list; citers : int }
(** one statement per list element: [R] E/F/G := c*(pool t1) + c'*(pool t2) *)

let gen_cprog =
  QCheck.Gen.(
    let* nstmts = int_range 2 3 in
    let* cterms =
      list_size (return nstmts) (pair (int_range 0 3) (int_range 0 3))
    in
    let* citers = int_range 1 2 in
    return { cterms; citers })

let cprog_to_source (p : cprog) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    {|
constant n = 8;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
var A, B, C, D, E, F, G : [BigR] float;
var t : int;
procedure main();
begin
  [BigR] A := Index1 * 0.7 + Index2 * 0.3;
  [BigR] B := Index1 - Index2 * 0.5;
  [BigR] C := 1.0 + Index2 * 0.1;
  [BigR] D := 2.0 - Index1 * 0.1;
|};
  Buffer.add_string buf (Printf.sprintf "  for t := 1 to %d do\n" p.citers);
  List.iteri
    (fun i (t1, t2) ->
      Buffer.add_string buf
        (Printf.sprintf "    [R] %s := %.2f * %s + %.2f * %s + 0.01 * %d;\n"
           nsum_lhs.(i)
           (0.5 /. float_of_int (i + 1))
           nsum_pool.(t1)
           (0.25 /. float_of_int (i + 1))
           nsum_pool.(t2) i))
    p.cterms;
  Buffer.add_string buf "  end;\nend;\n";
  Buffer.contents buf

let arb_cprog = QCheck.make ~print:cprog_to_source gen_cprog

(** End to end: the sequential executor computes bitwise-identical
    stores, steps and cells on the row path and the per-point
    interpreter, over random mini-ZPL programs. *)
let prop_seqexec_row_path =
  QCheck.Test.make ~name:"seqexec row == per-point (bitwise)" ~count:25
    arb_prog (fun p ->
      let prog = Zpl.Check.compile_string (prog_to_source p) in
      seqexec_fingerprint ~row_path:true prog
      = seqexec_fingerprint ~row_path:false prog)

(** The same identity over shared-neighbor-sum programs, whose
    right-hand sides are scaled sums of shifted refs. *)
let prop_seqexec_nsum =
  QCheck.Test.make ~name:"seqexec shared sums == per-point" ~count:40
    arb_cprog (fun p ->
      let prog = Zpl.Check.compile_string (cprog_to_source p) in
      seqexec_fingerprint ~row_path:true prog
      = seqexec_fingerprint ~row_path:false prog)

(** Pack then unpack round-trips exactly at Bigarray sub-view
    boundaries: full fringe rows/columns of a fringed store, and rank-3
    rectangles flush against the never-grown innermost dimension. *)
let test_wireplan_boundaries () =
  let check_roundtrip name (s : Runtime.Store.t) rect =
    fill_store s 42;
    let before = Runtime.Store.to_array s in
    let plan, b = wire1 s rect in
    Runtime.Wireplan.pack plan [| s |] b;
    Runtime.Wireplan.unpack plan [| s |] b;
    Alcotest.(check bool) (name ^ ": store untouched") true
      (Array.map bits before = Array.map bits (Runtime.Store.to_array s));
    Alcotest.(check int) (name ^ ": size") (Zpl.Region.size rect)
      (Runtime.Wireplan.cells plan)
  in
  let info2 =
    { Zpl.Prog.a_id = 0; a_name = "A";
      a_region = Zpl.Region.make [ (0, 9); (0, 9) ]; a_rank = 2 }
  in
  let s = Runtime.Store.make info2 ~owned:(Zpl.Region.make [ (2, 5); (2, 5) ])
      ~fringe:1 in
  (* alloc is [1..6, 1..6]: rows/cols at both fringe edges *)
  check_roundtrip "west fringe column" s (Zpl.Region.make [ (1, 6); (1, 1) ]);
  check_roundtrip "east fringe column" s (Zpl.Region.make [ (1, 6); (6, 6) ]);
  check_roundtrip "north fringe row" s (Zpl.Region.make [ (1, 1); (1, 6) ]);
  check_roundtrip "full alloc" s (Zpl.Region.make [ (1, 6); (1, 6) ]);
  let info3 =
    { Zpl.Prog.a_id = 0; a_name = "Q";
      a_region = Zpl.Region.make [ (1, 4); (1, 4); (1, 6) ]; a_rank = 3 }
  in
  let q =
    Runtime.Store.make info3
      ~owned:(Zpl.Region.make [ (1, 2); (1, 2); (1, 6) ])
      ~fringe:1
  in
  (* dim 2 is never grown: rectangles flush against both of its edges *)
  check_roundtrip "rank-3, full dim 2" q
    (Zpl.Region.make [ (0, 3); (1, 1); (1, 6) ]);
  check_roundtrip "rank-3, dim-2 lo edge" q
    (Zpl.Region.make [ (1, 2); (1, 2); (1, 1) ]);
  check_roundtrip "rank-3, dim-2 hi edge" q
    (Zpl.Region.make [ (1, 2); (1, 2); (6, 6) ])

(* ------------------------------------------------------------------ *)
(* Comm runtime == sequential oracle on an uneven mesh                 *)
(* ------------------------------------------------------------------ *)

(** The wire-plan communication runtime (blit plans, pooled staging
    buffers, ring mailboxes) moves exactly the data the program reads:
    every gathered array matches the sequential oracle bit for bit —
    across all six paper experiment rows (every optimization config and
    both libraries, so cc-combined multi-array messages and SHMEM
    rendezvous tokens are all exercised) on a 3x3 mesh, whose uneven
    3/3/2 block split gives ranks different geometries and corner ranks
    diagonal partners. The final scalar environments agree too, except
    in loop-variable slots: a [for] variable ends one step past its
    bound in the flattened code the engine runs but at its bound in the
    oracle, and the checker scopes it to its loop, so nothing reads it
    afterwards. *)
let prop_comm_matches_oracle =
  QCheck.Test.make ~name:"engine: comm runtime == Seqexec oracle (bitwise)"
    ~count:10 arb_prog (fun p ->
      let prog = Zpl.Check.compile_string (prog_to_source p) in
      let want = oracle_outcome prog in
      List.for_all
        (fun (_, config, lib) ->
          engine_outcome prog (Opt.Passes.compile config prog) lib ~pr:3 ~pc:3
          = want)
        Report.Experiment.paper_rows)

(* ------------------------------------------------------------------ *)
(* Loop-variant regions at the edges: engine == oracle, or one error   *)
(*                                                                     *)
(* Row and column sweeps [i..i, lo..hi] / [lo..hi, i..i] whose bounds  *)
(* are drawn from 0..n+1 around the arrays' [1..n], assigning shifted  *)
(* reads or reducing them (max<<, exact in any order), over arrays     *)
(* declared narrower than the index space in either dimension: S keeps *)
(* the first rows, T the last columns. Many runs break the             *)
(* statement-region rule at some trip; the rest run clean.             *)
(* ------------------------------------------------------------------ *)

let rule_n = 6

let gen_rule_src : string QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 2 (rule_n - 1) >>= fun srows ->
  int_range 2 rule_n >>= fun tlo ->
  (* bounds just past the arrays and just past S's and T's edges *)
  let bound =
    frequency
      [ (1, return 0); (1, return (rule_n + 1)); (1, return (srows + 1));
        (1, return (tlo - 1)); (6, int_range 1 rule_n) ]
  in
  let name = oneofl [ "A"; "B"; "S"; "T" ] in
  let off = int_range (-1) 1 in
  let read =
    map3 (fun y d0 d1 -> Printf.sprintf "%s@[%d,%d]" y d0 d1) name off off
  in
  let sweep =
    map3
      (fun rows lo hi ->
        if rows then Printf.sprintf "[i..i, %d..%d]" lo hi
        else Printf.sprintf "[%d..%d, i..i]" lo hi)
      bool bound bound
  in
  let assign =
    map4
      (fun r x y z -> Printf.sprintf "    %s %s := %s * 0.5 + %s;" r x y z)
      sweep name read read
  in
  let reduce =
    map2
      (fun r y ->
        Printf.sprintf "    %s s := max<< %s;\n    [1..1, 1..1] B := s;" r y)
      sweep read
  in
  let loop =
    map3
      (fun lo hi body ->
        Printf.sprintf "  for i := %d to %d do\n%s\n  end;" lo hi body)
      bound bound
      (frequency [ (3, assign); (1, reduce) ])
  in
  map
    (fun loops ->
      Printf.sprintf
        "constant n = %d;\n\
         var A, B : [1..n, 1..n] float;\n\
         var S : [1..%d, 1..n] float;\n\
         var T : [1..n, %d..n] float;\n\
         var s : float;\n\
         var i : int;\n\
         procedure main();\n\
         begin\n\
        \  [1..n, 1..n] A := Index1 * 10.0 + Index2;\n\
        \  [1..n, 1..n] B := Index1 - Index2;\n\
        \  [1..%d, 1..n] S := Index1 + 0.5 * Index2;\n\
        \  [1..n, %d..n] T := Index2 * 2.0;\n\
         %s\n\
         end;\n"
        rule_n srows tlo srows tlo (String.concat "\n" loops))
    (list_size (int_range 1 3) loop)

(* a run's outcome, or its error message *)
let attempt f =
  match Zpl.Loc.guard f with
  | r -> r
  | exception e -> Error (Printexc.to_string e)

(** The engine on 1x1, 2x2, 3x1 and 1x5 and the oracle on both kernel
    paths either all finish with bitwise-equal arrays and scalars or all
    stop with the same positioned message. *)
let prop_region_rule_agrees =
  QCheck.Test.make ~name:"edge regions: engine == oracle, or one error"
    ~count:200
    (QCheck.make ~print:Fun.id gen_rule_src)
    (fun src ->
      let oracle row_path =
        attempt (fun () ->
            let prog = Zpl.Check.compile_string src in
            let t = Runtime.Seqexec.run ~row_path prog in
            outcome prog
              (Array.get t.Runtime.Seqexec.stores)
              (Runtime.Values.read_all t.Runtime.Seqexec.scalars
                 t.Runtime.Seqexec.slots))
      and engine (pr, pc) =
        attempt (fun () ->
            let prog = Zpl.Check.compile_string src in
            let e =
              (Run.Cache.run (Run.Cache.create ())
                 Run.Spec.(default src |> with_mesh pr pc))
                .Sim.Engine.engine
            in
            outcome prog (Sim.Engine.gather e) (Sim.Engine.final_env e))
      in
      let want = oracle true in
      oracle false = want
      && List.for_all
           (fun mesh -> engine mesh = want)
           [ (1, 1); (2, 2); (3, 1); (1, 5) ])

(* ------------------------------------------------------------------ *)
(* Domain-parallel experiment grid == serial grid                      *)
(* ------------------------------------------------------------------ *)

let project_grid (rs : Report.Experiment.bench_result list) =
  List.map
    (fun (r : Report.Experiment.bench_result) ->
      ( r.Report.Experiment.bench.Programs.Bench_def.name,
        List.map
          (fun (row : Report.Experiment.row) ->
            (row.label, row.static_count, row.dynamic_count, bits row.time))
          r.Report.Experiment.rows ))
    rs

let test_grid_parallel_deterministic () =
  let serial = project_grid (Report.Experiment.grid ~scale:`Test ~domains:1 ()) in
  let par = project_grid (Report.Experiment.grid ~scale:`Test ~domains:4 ()) in
  Alcotest.(check bool) "parallel grid == serial grid" true (serial = par)

(* Run every property on a fixed seed: the program generator can draw
   adversarial cases for the statistical properties (the optimizer's
   never-slower bound is a heuristic, not a theorem), and tier-1 must be
   deterministic. Exploration stays one [QCHECK_SEED=n dune runtest]
   away — the env var takes precedence inside qcheck-alcotest. *)
let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed1 |]) t

let () =
  Alcotest.run "properties"
    [ ( "optimizer",
        List.map to_alcotest
          [ prop_optimizer_preserves_semantics; prop_counts_monotone;
            prop_members_preserved; prop_schedcheck_accepts;
            prop_invariants; prop_never_slower ] );
      ( "analysis",
        List.map to_alcotest
          [ prop_absint_hull_sound; prop_commvol_engine_validated ] );
      ( "halo",
        List.map to_alcotest [ prop_halo_duality; prop_halo_covers ] );
      ( "row engine",
        List.map to_alcotest
          [ prop_row_kernel_bitwise; prop_row_reduce_bitwise;
            prop_shared_workspace; prop_row_kernel_special;
            prop_wireplan_rows; prop_seqexec_row_path;
            prop_seqexec_nsum; prop_comm_matches_oracle;
            prop_region_rule_agrees ]
        @ [ Alcotest.test_case "wireplan pack/unpack at view boundaries"
              `Quick test_wireplan_boundaries;
            Alcotest.test_case "parallel grid == serial grid" `Quick
              test_grid_parallel_deterministic ] ) ]
