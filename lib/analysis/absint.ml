(** Scalar abstract interpretation: a constant/interval domain over the
    replicated scalars, run two ways — a fixpoint analysis over the
    final IRONMAN IR ({!analyze}) and a fixpoint-free feasible-path walk
    over the typed program ({!live_body}).

    The concrete semantics being abstracted is the scalar code
    {!Runtime.Values} compiles: every processor runs it identically
    (SPMD), so one abstract environment describes them all. Scalars
    start at their type's zero ({!Runtime.Values.make_slots}), and [-D]
    defines are
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

let eval_call1 (u : Zpl.Arith.unary) (a : ival) : ival =
  if is_point a then point (Zpl.Arith.unary u a.lo)
  else
    match u with
    | Zpl.Arith.Abs ->
        if a.lo >= 0.0 then a
        else if a.hi <= 0.0 then neg a
        else mk 0.0 (Float.max (-.a.lo) a.hi)
    | Zpl.Arith.Sqrt -> if a.lo < 0.0 then top else mk (sqrt a.lo) (sqrt a.hi)
    | Zpl.Arith.Exp -> mk (exp a.lo) (exp a.hi)
    | Zpl.Arith.Ln | Zpl.Arith.Log ->
        if a.lo <= 0.0 then top else mk (log a.lo) (log a.hi)
    | Zpl.Arith.Sin | Zpl.Arith.Cos -> mk (-1.0) 1.0
    | Zpl.Arith.Floor -> mk (Float.floor a.lo) (Float.floor a.hi)
    | Zpl.Arith.Sign ->
        if a.lo > 0.0 then point 1.0
        else if a.hi < 0.0 then point (-1.0)
        else if a.lo >= 0.0 then mk 0.0 1.0
        else if a.hi <= 0.0 then mk (-1.0) 0.0
        else mk (-1.0) 1.0
    | Zpl.Arith.Tan -> top

(* min and max are monotone in both arguments *)
let eval_call2 (b : Zpl.Arith.binary) (x : ival) (y : ival) : ival =
  mk (Zpl.Arith.binary b x.lo y.lo) (Zpl.Arith.binary b x.hi y.hi)

(** [eval ~scalars lookup e] abstracts {!Runtime.Values}' scalar code: for
    any concrete environment within [lookup]'s intervals, the concrete
    result lies in the returned interval (with the NaN convention
    above). Comparisons and logic return 0/1 intervals, the abstraction
    of the concrete booleans. Int [+ - *] wraps at 63 bits, and float
    endpoint arithmetic rounds beyond 2^53, so an int result (by
    {!Zpl.Prog.sexpr_type}, [scalars] giving each scalar's type) is kept
    only while both endpoints lie within +-2^53. *)
let rec eval ~scalars (lookup : int -> ival) (e : Zpl.Prog.sexpr) : ival =
  let eval = eval ~scalars and m = 9007199254740992.0 in
  let arith v =
    if Zpl.Prog.sexpr_type scalars e = Zpl.Ast.TFloat
       || (v.lo >= -.m && v.hi <= m)
    then v
    else top
  in
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
  match e with
  | Zpl.Prog.SFloat f -> point f
  | Zpl.Prog.SInt i -> point (float_of_int i)
  | Zpl.Prog.SBool b -> of_bool b
  | Zpl.Prog.SVar id -> lookup id
  | Zpl.Prog.SNeg a -> arith (neg (eval lookup a))
  | Zpl.Prog.SNot a -> of_bool3 (not3 (to_bool3 (eval lookup a)))
  | Zpl.Prog.SArith (op, a, b) -> (
      let va = eval lookup a and vb = eval lookup b in
      match op with
      | `Add -> arith (add va vb)
      | `Sub -> arith (sub va vb)
      | `Mul -> arith (mul va vb)
      | `Div -> div va vb
      | `Pow ->
          if is_point va && is_point vb then point (Float.pow va.lo vb.lo)
          else top)
  | Zpl.Prog.SCompare (op, a, b) -> (
      let va = eval lookup a and vb = eval lookup b in
      of_bool3
        (match op with
        | Zpl.Arith.Lt -> lt va vb
        | Zpl.Arith.Le -> le va vb
        | Zpl.Arith.Gt -> lt vb va
        | Zpl.Arith.Ge -> le vb va
        | Zpl.Arith.Eq -> eq va vb
        | Zpl.Arith.Ne -> not3 (eq va vb)))
  | Zpl.Prog.SLogic (op, a, b) -> (
      match (op, to_bool3 (eval lookup a), to_bool3 (eval lookup b)) with
      | Zpl.Arith.And, False, _ | Zpl.Arith.And, _, False -> ff
      | Zpl.Arith.Or, True, _ | Zpl.Arith.Or, _, True -> tt
      | Zpl.Arith.And, True, True -> tt
      | Zpl.Arith.Or, False, False -> ff
      | _ -> bool_unknown)
  | Zpl.Prog.SCall (Zpl.Arith.Call1 (u, a)) -> eval_call1 u (eval lookup a)
  | Zpl.Prog.SCall (Zpl.Arith.Call2 (op, a, b)) ->
      eval_call2 op (eval lookup a) (eval lookup b)

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

(* states are persistent: the fixpoint replays loop bodies from saved
   states, so writes copy *)
let set (st : state) id v =
  let st = Array.copy st in
  st.(id) <- v;
  st

let eval_state ~scalars (st : state) e = eval ~scalars (fun id -> st.(id)) e

let scalar_types (p : Zpl.Prog.t) id = p.Zpl.Prog.scalars.(id).s_ty

(** The exact initial state: every scalar at its type's zero. *)
let init_state (p : Zpl.Prog.t) : state =
  Array.map
    (fun (s : Zpl.Prog.scalar_info) ->
      match s.s_ty with
      | Zpl.Ast.TFloat | Zpl.Ast.TInt -> point 0.0
      | Zpl.Ast.TBool -> of_bool false)
    p.Zpl.Prog.scalars

(* fixpoint rounds before widening kicks in *)
let widen_delay = 4

(* ------------------------------------------------------------------ *)
(* Fixpoint analysis over the final IR                                 *)
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

(* The walk threads [final]: [false] during fixpoint rounds, [true] on
   the one replay of each instruction from its stable state, which is
   the only time decisions, trip counts and hull writes are recorded. *)
let analyze (p : Ir.Instr.program) : summary =
  let decisions = Hashtbl.create 16 in
  let trips_tbl = Hashtbl.create 16 in
  let hull = init_state p.Ir.Instr.prog in
  let eval_state = eval_state ~scalars:(scalar_types p.Ir.Instr.prog) in
  let write ~final st id v =
    if final then hull.(id) <- join hull.(id) v;
    set st id v
  in
  let rec exec_list ~final pos st = function
    | [] -> st
    | i :: rest ->
        exec_list ~final (pos + Ir.Instr.size i) (exec ~final pos st i) rest
  and exec ~final pos st (i : Ir.Instr.instr) =
    match i with
    | Ir.Instr.Comm _ | Ir.Instr.Kernel _ | Ir.Instr.CollPart _ -> st
    | Ir.Instr.ScalarK { lhs; rhs } -> write ~final st lhs (eval_state st rhs)
    | Ir.Instr.ReduceK r -> write ~final st r.Zpl.Prog.r_lhs top
    | Ir.Instr.CollFin w ->
        write ~final st w.Ir.Instr.cw_red.Zpl.Prog.r_lhs top
    | Ir.Instr.If (cond, a, b) -> (
        let bpos = pos + 1 + Ir.Instr.size_list a in
        (* a decided branch walks only its live arm *)
        match decide_bool (eval_state st cond) with
        | Some d ->
            if final then Hashtbl.replace decisions pos d;
            if d then exec_list ~final (pos + 1) st a
            else exec_list ~final bpos st b
        | None ->
            state_join
              (exec_list ~final (pos + 1) st a)
              (exec_list ~final bpos st b))
    | Ir.Instr.Repeat (body, cond) ->
        (* do-until: an exit test that holds after the first pass means
           exactly one iteration, and the back edge never fires *)
        let first = exec_list ~final:false (pos + 1) st body in
        let out =
          if decide_bool (eval_state first cond) = Some true then
            if final then exec_list ~final (pos + 1) st body else first
          else loop ~final (pos + 1) body st
        in
        if final then
          Hashtbl.replace trips_tbl pos
            (match decide_bool (eval_state out cond) with
            | Some true -> point 1.0
            | _ -> mk 1.0 infinity);
        out
    | Ir.Instr.For { var; lo; hi; step; body } ->
        (* The checker rejects writes to a loop variable inside its body
           and hoists any [hi] the body could change into a scalar
           assigned before the loop, so both bounds hold still for the
           whole loop. At body entry the head test just passed, so for
           step = +1 the variable is <= hi and >= its initial lo. *)
        let lov = eval_state st lo and hiv = eval_state st hi in
        let binding =
          if step >= 0 then mk lov.lo (Float.max lov.hi hiv.hi)
          else mk (Float.min lov.lo hiv.lo) lov.hi
        in
        let out = loop ~final (pos + 1) body (set st var binding) in
        if final then
          Hashtbl.replace trips_tbl pos (for_trips ~step ~lo:lov ~hi:hiv);
        (* the exit value of the loop variable: the flattened form leaves
           the first failing value (<= hi + step), the sequential
           executor the last in-range one, and a zero-trip loop the
           initial [lo] (or the untouched pre value) — cover all of
           them; the other scalars join the zero-trip pre-state *)
        let exit_var =
          join
            (join out.(var) st.(var))
            (join lov (add hiv (point (float_of_int step))))
        in
        write ~final (state_join st out) var exit_var
  (* Iterate the body from [pre] joined with its own output (the back
     edge) until the entry is stable, widening after [widen_delay]
     rounds — every endpoint then moves at most once more, to
     infinity, so the loop terminates — then replay once from the
     stable entry with [final] inherited. *)
  and loop ~final body_pos body pre =
    let rec fix entry n =
      let out = exec_list ~final:false body_pos entry body in
      let merged = state_join pre out in
      let entry' =
        if n < widen_delay then merged else state_widen entry merged
      in
      if state_equal entry entry' then (entry, out) else fix entry' (n + 1)
    in
    let entry, out = fix pre 0 in
    if final then exec_list ~final body_pos entry body else out
  in
  let exit =
    exec_list ~final:true 0 (init_state p.Ir.Instr.prog) p.Ir.Instr.code
  in
  { s_decisions = decisions; s_trips = trips_tbl; s_hull = hull; s_exit = exit }

(* ------------------------------------------------------------------ *)
(* Feasible-path walk over the typed program                           *)
(* ------------------------------------------------------------------ *)

let havoc (st : state) ids =
  let st = Array.copy st in
  List.iter (fun v -> st.(v) <- top) ids;
  st

let live_body ?(visit = fun (_ : Zpl.Prog.stmt) -> ()) (p : Zpl.Prog.t) :
    Zpl.Prog.stmt list =
  let eval_state = eval_state ~scalars:(scalar_types p) in
  let rec go st (stmts : Zpl.Prog.stmt list) =
    let acc, st =
      List.fold_left
        (fun (acc, st) (s : Zpl.Prog.stmt) ->
          visit s;
          match s with
          | Zpl.Prog.AssignS { lhs; rhs; _ } ->
              (s :: acc, set st lhs (eval_state st rhs))
          | Zpl.Prog.AssignA _ -> (s :: acc, st)
          | Zpl.Prog.ReduceS r -> (s :: acc, set st r.Zpl.Prog.r_lhs top)
          | Zpl.Prog.Repeat (body, cond) ->
              let body, st = go (havoc st (Zpl.Prog.scalar_writes body)) body in
              (Zpl.Prog.Repeat (body, cond) :: acc, st)
          | Zpl.Prog.For ({ var; body; _ } as f) ->
              (* the havocked entry state is the loop invariant and the
                 post-state: it covers every body post-state and the
                 zero-trip run, where scalars keep their pre-loop values *)
              let st = havoc st (var :: Zpl.Prog.scalar_writes body) in
              let body, _ = go st body in
              (Zpl.Prog.For { f with body } :: acc, st)
          | Zpl.Prog.If (cond, a, b) -> (
              match decide_bool (eval_state st cond) with
              | Some true ->
                  let a, st = go st a in
                  (List.rev_append a acc, st)
              | Some false ->
                  let b, st = go st b in
                  (List.rev_append b acc, st)
              | None ->
                  let a, sa = go st a in
                  let b, sb = go st b in
                  (Zpl.Prog.If (cond, a, b) :: acc, state_join sa sb)))
        ([], st) stmts
    in
    (List.rev acc, st)
  in
  fst (go (init_state p) p.Zpl.Prog.body)
