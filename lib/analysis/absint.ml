(** Scalar abstract interpretation: a constant/interval domain over the
    replicated scalars, run forward over the final IRONMAN IR through
    {!Dataflow} (structured form) and a worklist (flattened form).

    The concrete semantics being abstracted is {!Runtime.Values.eval_env}:
    every processor evaluates scalar statements identically (SPMD), so
    one abstract environment describes them all. Scalars start at their
    type's zero ({!Runtime.Values.default_of}), and [-D] defines are
    already folded to literals by {!Zpl.Check} — the initial state is
    therefore exact, and precision is lost only at joins, widenings and
    data-dependent writes ([ReduceK]/[CollFin] results come from array
    data the scalar domain cannot see and go to top).

    Soundness convention for the interval [{lo; hi}]: every value the
    scalar can hold satisfies [lo <= v <= hi], {e except} that the top
    interval [[-inf, +inf]] additionally covers NaN. Every operation
    that could produce NaN from its input intervals (division through
    zero, [inf - inf], [sqrt] of a possibly-negative value, ...) returns
    top, so non-top intervals never lie about NaN. *)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

type ival = { lo : float; hi : float }

let top = { lo = neg_infinity; hi = infinity }
let is_top (i : ival) = i.lo = neg_infinity && i.hi = infinity

(** NaN-guarded constructor: any NaN endpoint collapses to top. *)
let mk lo hi = if Float.is_nan lo || Float.is_nan hi then top else { lo; hi }

let point v = mk v v
let is_point (i : ival) = i.lo = i.hi && Float.is_finite i.lo
let equal_ival (a : ival) (b : ival) = a.lo = b.lo && a.hi = b.hi

let join (a : ival) (b : ival) =
  { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let contains (i : ival) v = is_top i || (v >= i.lo && v <= i.hi)

(** Compact rendering: "4" for points, "[4,inf]" otherwise. *)
let string_of_ival (i : ival) =
  let b v =
    if v = infinity then "inf"
    else if v = neg_infinity then "-inf"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%g" v
  in
  if is_point i then b i.lo else Printf.sprintf "[%s,%s]" (b i.lo) (b i.hi)

(** Standard interval widening: a bound that moved since the last round
    jumps to infinity, forcing loop fixpoints to converge. *)
let widen_ival (old : ival) (nw : ival) =
  { lo = (if nw.lo < old.lo then neg_infinity else Float.min old.lo nw.lo);
    hi = (if nw.hi > old.hi then infinity else Float.max old.hi nw.hi) }

let min4 a b c d = Float.min (Float.min a b) (Float.min c d)
let max4 a b c d = Float.max (Float.max a b) (Float.max c d)

let neg (a : ival) = mk (-.a.hi) (-.a.lo)
let add (a : ival) (b : ival) = mk (a.lo +. b.lo) (a.hi +. b.hi)
let sub (a : ival) (b : ival) = mk (a.lo -. b.hi) (a.hi -. b.lo)

(* No 0 * inf = 0 shortcut: an infinite endpoint can be a genuine
   concrete infinity (exp/pow overflow), where concretely 0 * inf is
   NaN. The endpoint product then yields NaN and [mk] collapses to top;
   a 0-straddling operand against an infinite endpoint already spans
   [-inf, inf] anyway, so nothing is lost that soundness permits. *)
let mul (a : ival) (b : ival) =
  let p1 = a.lo *. b.lo and p2 = a.lo *. b.hi in
  let p3 = a.hi *. b.lo and p4 = a.hi *. b.hi in
  mk (min4 p1 p2 p3 p4) (max4 p1 p2 p3 p4)

let div (a : ival) (b : ival) =
  if b.lo <= 0.0 && b.hi >= 0.0 then top (* 0 in denominator: inf/NaN *)
  else
    let p1 = a.lo /. b.lo and p2 = a.lo /. b.hi in
    let p3 = a.hi /. b.lo and p4 = a.hi /. b.hi in
    mk (min4 p1 p2 p3 p4) (max4 p1 p2 p3 p4)

(* booleans live in the same domain as 0/1 *)
let tt = point 1.0
let ff = point 0.0
let bool_unknown = { lo = 0.0; hi = 1.0 }
let of_bool b = if b then tt else ff

type bool3 = True | False | Unknown

let to_bool3 (i : ival) =
  if i.lo = 1.0 && i.hi = 1.0 then True
  else if i.lo = 0.0 && i.hi = 0.0 then False
  else Unknown

let of_bool3 = function True -> tt | False -> ff | Unknown -> bool_unknown

(** Three-valued read of a condition interval: [Some b] iff the
    condition is provably [b] on every feasible execution. *)
let decide_bool (i : ival) : bool option =
  match to_bool3 i with
  | True -> Some true
  | False -> Some false
  | Unknown -> None

(* ------------------------------------------------------------------ *)
(* Abstract evaluation of scalar expressions                           *)
(* ------------------------------------------------------------------ *)

let eval_call1 (f : string) (a : ival) : ival =
  if is_point a then
    match Runtime.Values.apply1 f a.lo with
    | v -> point v
    | exception Invalid_argument _ -> top
  else
    match f with
    | "abs" ->
        if a.lo >= 0.0 then a
        else if a.hi <= 0.0 then neg a
        else mk 0.0 (Float.max (-.a.lo) a.hi)
    | "sqrt" -> if a.lo < 0.0 then top else mk (sqrt a.lo) (sqrt a.hi)
    | "exp" -> mk (exp a.lo) (exp a.hi)
    | "ln" | "log" -> if a.lo <= 0.0 then top else mk (log a.lo) (log a.hi)
    | "sin" | "cos" -> mk (-1.0) 1.0
    | "floor" -> mk (Float.floor a.lo) (Float.floor a.hi)
    | "sign" ->
        if a.lo > 0.0 then point 1.0
        else if a.hi < 0.0 then point (-1.0)
        else if a.lo >= 0.0 then mk 0.0 1.0
        else if a.hi <= 0.0 then mk (-1.0) 0.0
        else mk (-1.0) 1.0
    | _ -> top (* tan and anything unexpected *)

let eval_call2 (f : string) (a : ival) (b : ival) : ival =
  if is_point a && is_point b then
    match Runtime.Values.apply2 f a.lo b.lo with
    | v -> point v
    | exception Invalid_argument _ -> top
  else
    match f with
    | "min" -> mk (Float.min a.lo b.lo) (Float.min a.hi b.hi)
    | "max" -> mk (Float.max a.lo b.lo) (Float.max a.hi b.hi)
    | _ -> top

(** [eval lookup e] abstracts {!Runtime.Values.eval_env}: for any concrete
    environment within [lookup]'s intervals, the concrete result lies in
    the returned interval (with the NaN convention above). Comparisons
    and logic return 0/1 intervals, the abstraction of the concrete
    booleans. *)
let rec eval (lookup : int -> ival) (e : Zpl.Prog.sexpr) : ival =
  match e with
  | Zpl.Prog.SFloat f -> point f
  | Zpl.Prog.SInt i -> point (float_of_int i)
  | Zpl.Prog.SBool b -> of_bool b
  | Zpl.Prog.SVar id -> lookup id
  | Zpl.Prog.SUn (Zpl.Ast.Neg, a) -> neg (eval lookup a)
  | Zpl.Prog.SUn (Zpl.Ast.Not, a) -> (
      match to_bool3 (eval lookup a) with
      | True -> ff
      | False -> tt
      | Unknown -> bool_unknown)
  | Zpl.Prog.SBin (op, a, b) -> (
      let va = eval lookup a and vb = eval lookup b in
      (* decided comparisons are sound because non-top intervals exclude
         NaN, and top's infinite endpoints can never decide a test *)
      let lt a b =
        if a.hi < b.lo then True else if a.lo >= b.hi then False else Unknown
      in
      let le a b =
        if a.hi <= b.lo then True else if a.lo > b.hi then False else Unknown
      in
      let eq a b =
        if a.hi < b.lo || b.hi < a.lo then False
        else if is_point a && is_point b && a.lo = b.lo then True
        else Unknown
      in
      let not3 = function True -> False | False -> True | Unknown -> Unknown in
      match op with
      | Zpl.Ast.Add -> add va vb
      | Zpl.Ast.Sub -> sub va vb
      | Zpl.Ast.Mul -> mul va vb
      | Zpl.Ast.Div -> div va vb
      | Zpl.Ast.Pow ->
          if is_point va && is_point vb then point (Float.pow va.lo vb.lo)
          else top
      | Zpl.Ast.Lt -> of_bool3 (lt va vb)
      | Zpl.Ast.Le -> of_bool3 (le va vb)
      | Zpl.Ast.Gt -> of_bool3 (lt vb va)
      | Zpl.Ast.Ge -> of_bool3 (le vb va)
      | Zpl.Ast.Eq -> of_bool3 (eq va vb)
      | Zpl.Ast.Ne -> of_bool3 (not3 (eq va vb))
      | Zpl.Ast.And -> (
          match (to_bool3 va, to_bool3 vb) with
          | False, _ | _, False -> ff
          | True, True -> tt
          | _ -> bool_unknown)
      | Zpl.Ast.Or -> (
          match (to_bool3 va, to_bool3 vb) with
          | True, _ | _, True -> tt
          | False, False -> ff
          | _ -> bool_unknown))
  | Zpl.Prog.SCall (f, [ a ]) -> eval_call1 f (eval lookup a)
  | Zpl.Prog.SCall (f, [ a; b ]) -> eval_call2 f (eval lookup a) (eval lookup b)
  | Zpl.Prog.SCall (_, _) -> top

(* ------------------------------------------------------------------ *)
(* Abstract states                                                     *)
(* ------------------------------------------------------------------ *)

type state = ival array (* indexed by scalar id *)

let state_equal (a : state) (b : state) =
  let n = Array.length a in
  let rec go i = i >= n || (equal_ival a.(i) b.(i) && go (i + 1)) in
  go 0

let state_join (a : state) (b : state) : state =
  Array.init (Array.length a) (fun i -> join a.(i) b.(i))

let state_widen (old : state) (nw : state) : state =
  Array.init (Array.length old) (fun i -> widen_ival old.(i) nw.(i))

(* states are persistent: the dataflow framework replays instruction
   lists from saved states, so writes copy *)
let set (st : state) id v =
  let st = Array.copy st in
  st.(id) <- v;
  st

let eval_state (st : state) e = eval (fun id -> st.(id)) e

(** The exact initial state: every scalar at its type's zero. *)
let init_state (p : Zpl.Prog.t) : state =
  Array.map
    (fun (s : Zpl.Prog.scalar_info) ->
      match Runtime.Values.default_of s.s_ty with
      | Runtime.Values.VFloat f -> point f
      | Runtime.Values.VInt i -> point (float_of_int i)
      | Runtime.Values.VBool b -> of_bool b)
    p.Zpl.Prog.scalars

(* fixpoint rounds before widening kicks in *)
let widen_delay = 4

(* ------------------------------------------------------------------ *)
(* Syntactic helpers shared with the consumers                         *)
(* ------------------------------------------------------------------ *)

let rec sexpr_vars acc (e : Zpl.Prog.sexpr) =
  match e with
  | Zpl.Prog.SFloat _ | Zpl.Prog.SInt _ | Zpl.Prog.SBool _ -> acc
  | Zpl.Prog.SVar id -> if List.mem id acc then acc else id :: acc
  | Zpl.Prog.SUn (_, a) -> sexpr_vars acc a
  | Zpl.Prog.SBin (_, a, b) -> sexpr_vars (sexpr_vars acc a) b
  | Zpl.Prog.SCall (_, args) -> List.fold_left sexpr_vars acc args

(** Scalar ids written anywhere in an instruction list (loop variables
    of nested [For]s included). *)
let rec writes_of (code : Ir.Instr.instr list) : int list =
  List.concat_map
    (function
      | Ir.Instr.Comm _ | Ir.Instr.Kernel _ | Ir.Instr.CollPart _ -> []
      | Ir.Instr.ScalarK { lhs; _ } -> [ lhs ]
      | Ir.Instr.ReduceK r -> [ r.Zpl.Prog.r_lhs ]
      | Ir.Instr.CollFin w -> [ w.Ir.Instr.cw_red.Zpl.Prog.r_lhs ]
      | Ir.Instr.Repeat (body, _) -> writes_of body
      | Ir.Instr.For { var; body; _ } -> var :: writes_of body
      | Ir.Instr.If (_, a, b) -> writes_of a @ writes_of b)
    code

(* ------------------------------------------------------------------ *)
(* Structured analysis over Dataflow                                   *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_decisions : (int, bool) Hashtbl.t;
      (** [If] preorder position -> the arm every execution takes *)
  s_trips : (int, ival) Hashtbl.t;
      (** [Repeat]/[For] preorder position -> iteration-count interval
          ([Repeat] counts body executions, so at least 1) *)
  s_hull : state;
      (** per-scalar hull over every feasible write (and the initial
          zeros) — the envelope the qcheck soundness property checks
          concrete traces against *)
  s_exit : state;  (** abstract state at program exit *)
}

let decision (s : summary) pos = Hashtbl.find_opt s.s_decisions pos
let trips (s : summary) pos = Hashtbl.find_opt s.s_trips pos

(** Trip-count interval of a counted loop from its bound intervals:
    [max 0 (hi - lo + 1)] for [step = +1], mirrored for [-1]. *)
let for_trips ~(step : int) ~(lo : ival) ~(hi : ival) : ival =
  let clamp0 v = Float.max 0.0 v in
  if step >= 0 then
    mk (clamp0 (hi.lo -. lo.hi +. 1.0)) (clamp0 (hi.hi -. lo.lo +. 1.0))
  else mk (clamp0 (lo.lo -. hi.hi +. 1.0)) (clamp0 (lo.hi -. hi.lo +. 1.0))

(* A [For] whose body writes a variable of its own [hi] bound (the
   flattened form re-evaluates [hi] at every head test), or the loop
   variable itself, escapes the entry-time induction argument. The scan
   runs once per analysis; the hooks consult it by preorder position. *)
type for_interference = { fi_writes_var : bool; fi_writes_hi : bool }

let scan_for_interference (code : Ir.Instr.instr list) :
    (int, for_interference) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  let rec go pos = function
    | [] -> ()
    | i :: rest ->
        (match i with
        | Ir.Instr.Comm _ | Ir.Instr.Kernel _ | Ir.Instr.ScalarK _
        | Ir.Instr.ReduceK _ | Ir.Instr.CollPart _ | Ir.Instr.CollFin _ ->
            ()
        | Ir.Instr.Repeat (body, _) -> go (pos + 1) body
        | Ir.Instr.If (_, a, b) ->
            go (pos + 1) a;
            go (pos + 1 + Ir.Instr.size_list a) b
        | Ir.Instr.For { var; hi; body; _ } ->
            let w = writes_of body in
            Hashtbl.replace tbl pos
              { fi_writes_var = List.mem var w;
                fi_writes_hi =
                  List.exists (fun v -> List.mem v w) (sexpr_vars [] hi) };
            go (pos + 1) body);
        go (pos + Ir.Instr.size i) rest
  in
  go 0 code;
  tbl

let analyze ?(prune = true) (p : Ir.Instr.program) : summary =
  let prog = p.Ir.Instr.prog in
  let interference = scan_for_interference p.Ir.Instr.code in
  let interf pos =
    match Hashtbl.find_opt interference pos with
    | Some fi -> fi
    | None -> { fi_writes_var = true; fi_writes_hi = true } (* can't happen *)
  in
  let decisions = Hashtbl.create 16 in
  let trips_tbl = Hashtbl.create 16 in
  let hull = Array.copy (init_state prog) in
  let join_hull id v = hull.(id) <- join hull.(id) v in
  let transfer ~final ~pos:_ (i : Ir.Instr.instr) (st : state) : state =
    match i with
    | Ir.Instr.Comm _ | Ir.Instr.Kernel _ | Ir.Instr.CollPart _ -> st
    | Ir.Instr.ScalarK { lhs; rhs } ->
        let v = eval_state st rhs in
        if final then join_hull lhs v;
        set st lhs v
    | Ir.Instr.ReduceK r ->
        if final then join_hull r.Zpl.Prog.r_lhs top;
        set st r.Zpl.Prog.r_lhs top
    | Ir.Instr.CollFin w ->
        let lhs = w.Ir.Instr.cw_red.Zpl.Prog.r_lhs in
        if final then join_hull lhs top;
        set st lhs top
    | Ir.Instr.Repeat _ | Ir.Instr.For _ | Ir.Instr.If _ ->
        assert false (* structured instrs stay in the framework *)
  in
  let branch ~final ~pos (kind : Dataflow.branch_kind) cond (st : state) =
    let d = decide_bool (eval_state st cond) in
    (match (kind, final) with
    | `If, true -> (
        match d with Some b -> Hashtbl.replace decisions pos b | None -> ())
    | `Until, true ->
        (* body executions: exactly 1 when the exit test is provably
           true after the first pass, otherwise at least 1 *)
        let t = match d with Some true -> point 1.0 | _ -> mk 1.0 infinity in
        Hashtbl.replace trips_tbl pos t
    | _ -> ());
    if prune then d else None
  in
  let enter_for ~final:_ ~pos ~var ~lo ~hi ~step (pre : state) : state =
    let fi = interf pos in
    let lov = eval_state pre lo and hiv = eval_state pre hi in
    (* at body entry the head test just passed, so for step = +1 the
       variable is <= every-test-time hi and >= its initial lo — unless
       the body interferes with the bound or the variable *)
    let binding =
      if step >= 0 then
        mk
          (if fi.fi_writes_var then neg_infinity else lov.lo)
          (if fi.fi_writes_hi then infinity else Float.max lov.hi hiv.hi)
      else
        mk
          (if fi.fi_writes_hi then neg_infinity
           else Float.min lov.lo hiv.lo)
          (if fi.fi_writes_var then infinity else lov.hi)
    in
    set pre var binding
  in
  let exit_for ~final ~pos ~var ~lo ~hi ~step ~(pre : state) (out : state) :
      state =
    let fi = interf pos in
    let lov = eval_state pre lo in
    (* the flattened form re-evaluates [hi] at every head test: cover
       all test-time states with the stable entry join (pre ∪ out) *)
    let hiv = eval_state (state_join pre out) hi in
    if final then begin
      let t =
        if fi.fi_writes_var || fi.fi_writes_hi then mk 0.0 infinity
        else for_trips ~step ~lo:lov ~hi:hiv
      in
      Hashtbl.replace trips_tbl pos t
    end;
    (* the exit value of the loop variable: the flattened form leaves
       the first failing value (<= hi + step), the sequential executor
       the last in-range one, and a zero-trip loop the initial [lo] (or
       the untouched pre value) — cover all of them plus body writes *)
    let exit_var =
      if fi.fi_writes_var then top
      else
        join
          (join out.(var) pre.(var))
          (join lov (add hiv (point (float_of_int step))))
    in
    if final then join_hull var exit_var;
    let st = state_join pre out in
    set st var exit_var
  in
  let widen ~iter old merged =
    if iter < widen_delay then merged else state_widen old merged
  in
  let init = init_state prog in
  let exit =
    Dataflow.run ~widen ~branch ~enter_for ~exit_for
      { equal = state_equal; meet = state_join; transfer }
      ~init p.Ir.Instr.code
  in
  { s_decisions = decisions; s_trips = trips_tbl; s_hull = hull; s_exit = exit }

(* ------------------------------------------------------------------ *)
(* Flat (jump-threaded) analysis                                       *)
(* ------------------------------------------------------------------ *)

type flat_summary = {
  f_states : state option array;
      (** abstract state {e before} each op; [None] = unreachable *)
  f_decisions : bool option array;
      (** per [FJumpIfNot] op index: [Some b] when the condition is
          provably [b] on every execution reaching it *)
}

let reachable_flat (f : flat_summary) idx = f.f_states.(idx) <> None
let decide_flat (f : flat_summary) idx = f.f_decisions.(idx)

(* join rounds at one op before the flat analysis widens there; flat
   join points see one join per incoming visit, so the budget is larger
   than the structured widen_delay *)
let flat_widen_delay = 12

let analyze_flat (f : Ir.Flat.t) : flat_summary =
  let n = Array.length f.Ir.Flat.ops in
  let states : state option array = Array.make n None in
  let joins = Array.make n 0 in
  let work = Queue.create () in
  let enqueue idx st =
    match states.(idx) with
    | None ->
        states.(idx) <- Some st;
        Queue.add idx work
    | Some old ->
        let merged = state_join old st in
        if not (state_equal old merged) then begin
          joins.(idx) <- joins.(idx) + 1;
          let next =
            if joins.(idx) > flat_widen_delay then state_widen old merged
            else merged
          in
          states.(idx) <- Some next;
          Queue.add idx work
        end
  in
  enqueue 0 (init_state f.Ir.Flat.prog);
  while not (Queue.is_empty work) do
    let idx = Queue.pop work in
    match states.(idx) with
    | None -> assert false
    | Some st -> (
        match f.Ir.Flat.ops.(idx) with
        | Ir.Flat.FHalt -> ()
        | Ir.Flat.FComm _ | Ir.Flat.FKernel _ | Ir.Flat.FCollPart _ ->
            enqueue (idx + 1) st
        | Ir.Flat.FScalar { lhs; rhs } ->
            enqueue (idx + 1) (set st lhs (eval_state st rhs))
        | Ir.Flat.FReduce r -> enqueue (idx + 1) (set st r.Zpl.Prog.r_lhs top)
        | Ir.Flat.FCollFin w ->
            enqueue (idx + 1) (set st w.Ir.Instr.cw_red.Zpl.Prog.r_lhs top)
        | Ir.Flat.FJump target -> enqueue target st
        | Ir.Flat.FJumpIfNot (cond, target) -> (
            match decide_bool (eval_state st cond) with
            | Some true -> enqueue (idx + 1) st
            | Some false -> enqueue target st
            | None ->
                enqueue (idx + 1) st;
                enqueue target st))
  done;
  let decisions =
    Array.init n (fun idx ->
        match (f.Ir.Flat.ops.(idx), states.(idx)) with
        | Ir.Flat.FJumpIfNot (cond, _), Some st ->
            decide_bool (eval_state st cond)
        | _ -> None)
  in
  { f_states = states; f_decisions = decisions }
