(** Sequential reference executor: runs a typed program directly on global
    (undistributed) storage. This is the semantic oracle every optimizer
    configuration and machine model is tested against.

    The program body is pre-compiled into a statement tree whose array
    statements carry a store-agnostic execution plan (row-compiled fast
    path by default, per-point fallback when [row_path] is off or the row
    compiler declines), so statements inside loops compile once rather
    than once per iteration. All plans of a run share one
    {!Kernel.env} binding the global stores and scalar environment.
    Adjacent array assignments that satisfy {!Kernel.can_join} are
    additionally grouped into fused nodes sharing one row traversal —
    the same fusion the simulator applies, testable here against both
    unfused and per-point execution. *)

type t = {
  prog : Zpl.Prog.t;
  stores : Store.t array;
  env : Values.env;
  row_path : bool;  (** whether array statements may use the row path *)
  fuse : bool;  (** whether adjacent assignments may fuse (needs row path) *)
  cse : bool;  (** whether fused groups may hoist repeated subterms *)
  on_scalar : int -> Values.value -> unit;
      (** observation hook, called after every scalar write *)
  mutable steps : int;  (** simple statements executed *)
  mutable cells : int;  (** array cells updated or reduced *)
}

exception Step_limit of int

let make ?(row_path = true) ?(fuse = true) ?(cse = true)
    ?(on_scalar = fun _ _ -> ()) (prog : Zpl.Prog.t) : t =
  let stores =
    Array.map
      (fun (info : Zpl.Prog.array_info) ->
        Store.make info ~owned:info.a_region ~fringe:0)
      prog.arrays
  in
  { prog; stores; env = Values.make_env prog;
    row_path; fuse = fuse && row_path; cse; on_scalar;
    steps = 0; cells = 0 }

(* --- pre-compiled statement tree --- *)

type cassign = Zpl.Prog.assign_a * Kernel.plan

type cstmt =
  | CAssignA of cassign
  | CFused of cassign array * Kernel.fplan option
      (** fused group; the per-statement plans back the [None] fallback *)
  | CAssignS of int * Zpl.Prog.sexpr
  | CReduceS of Zpl.Prog.reduce_s * Kernel.rplan
  | CRepeat of cstmt list * Zpl.Prog.sexpr
  | CFor of {
      var : int;
      lo : Zpl.Prog.sexpr;
      hi : Zpl.Prog.sexpr;
      step : int;
      body : cstmt list;
    }
  | CIf of Zpl.Prog.sexpr * cstmt list * cstmt list

let cassign_of t rc (a : Zpl.Prog.assign_a) : cassign =
  (a, Kernel.plan_assign ~row:t.row_path rc a)

(** Greedy grouping of adjacent array assignments, mirroring the
    simulator's op-stream partition: a statement joins the open group
    while {!Kernel.can_join} holds against every member. *)
let rec compile_stmts t (rc : Kernel.rowctx) (stmts : Zpl.Prog.stmt list) :
    cstmt list =
  let arrays aid = t.prog.Zpl.Prog.arrays.(aid) in
  let close group acc =
    match group with
    | [] -> acc
    | [ a ] -> CAssignA (cassign_of t rc a) :: acc
    | _ :: _ :: _ ->
        let g = Array.of_list (List.rev group) in
        let cas = Array.map (cassign_of t rc) g in
        CFused (cas, Kernel.plan_fused ~cse:t.cse rc g) :: acc
  in
  let rec go group acc = function
    | [] -> List.rev (close group acc)
    | Zpl.Prog.AssignA a :: rest
      when t.fuse && Kernel.can_join ~arrays (List.rev group) a ->
        go (a :: group) acc rest
    | s :: rest ->
        let acc = close group acc in
        (match s with
        | Zpl.Prog.AssignA a -> go [ a ] acc rest
        | s -> go [] (compile_stmt t rc s :: acc) rest)
  in
  go [] [] stmts

and compile_stmt (t : t) (rc : Kernel.rowctx) (s : Zpl.Prog.stmt) : cstmt =
  match s with
  | Zpl.Prog.AssignA a -> CAssignA (cassign_of t rc a)
  | Zpl.Prog.AssignS { lhs; rhs; _ } -> CAssignS (lhs, rhs)
  | Zpl.Prog.ReduceS r ->
      CReduceS (r, Kernel.plan_reduce ~row:t.row_path rc r)
  | Zpl.Prog.Repeat (body, cond) -> CRepeat (compile_stmts t rc body, cond)
  | Zpl.Prog.For { var; lo; hi; step; body } ->
      CFor { var; lo; hi; step; body = compile_stmts t rc body }
  | Zpl.Prog.If (cond, then_, else_) ->
      CIf (cond, compile_stmts t rc then_, compile_stmts t rc else_)

(** Compile the whole body and bind the executor's stores and scalar
    environment into the one {!Kernel.env} the plans run against. The
    scalar closure reads [t.env] at call time, so scalar updates are
    visible to later kernel executions. *)
let compile (t : t) (stmts : Zpl.Prog.stmt list) : cstmt list * Kernel.env =
  let ws = Kernel.make_ws () in
  let rc = { Kernel.rstore = (fun aid -> t.stores.(aid)); rws = ws } in
  let cs = compile_stmts t rc stmts in
  let kenv =
    Kernel.make_env ~stores:t.stores
      ~scalar:(fun id -> Values.as_float t.env.(id))
      (Kernel.ws_spec ws)
  in
  (cs, kenv)

let bump t limit =
  t.steps <- t.steps + 1;
  if t.steps > limit then raise (Step_limit limit)

let exec_assign t kenv ~limit ((a, plan) : cassign) =
  bump t limit;
  let region = Values.eval_dregion t.env a.region in
  let store = t.stores.(a.lhs) in
  let region = Zpl.Region.inter region (Store.owned store) in
  if not (Zpl.Region.is_empty region) then
    t.cells <-
      t.cells + Kernel.exec_plan plan ~env:kenv ~lhs:store ~region

let rec exec_stmts t kenv ~limit (stmts : cstmt list) =
  List.iter (exec_stmt t kenv ~limit) stmts

and exec_stmt t kenv ~limit (s : cstmt) =
  match s with
  | CAssignA ca -> exec_assign t kenv ~limit ca
  | CFused (cas, fplan) -> (
      match fplan with
      | None ->
          (* some member only per-point-compiles: run the group unfused *)
          Array.iter (exec_assign t kenv ~limit) cas
      | Some fp ->
          Array.iter (fun _ -> bump t limit) cas;
          let a0, _ = cas.(0) in
          let region = Values.eval_dregion t.env a0.region in
          let region =
            Zpl.Region.inter region (Store.owned t.stores.(a0.lhs))
          in
          if not (Zpl.Region.is_empty region) then
            t.cells <- t.cells + Kernel.exec_fused fp ~env:kenv ~region)
  | CAssignS (lhs, rhs) ->
      bump t limit;
      t.env.(lhs) <- Values.eval_env t.env rhs;
      t.on_scalar lhs t.env.(lhs)
  | CReduceS (r, plan) ->
      bump t limit;
      let region = Values.eval_dregion t.env r.r_region in
      let v = Kernel.exec_rplan plan ~env:kenv ~region r.r_op in
      t.cells <- t.cells + Zpl.Region.size region;
      t.env.(r.r_lhs) <- Values.VFloat v;
      t.on_scalar r.r_lhs t.env.(r.r_lhs)
  | CRepeat (body, cond) ->
      let rec loop () =
        exec_stmts t kenv ~limit body;
        if not (Values.eval_bool t.env cond) then loop ()
      in
      loop ()
  | CFor { var; lo; hi; step; body } ->
      let lo = Values.as_int (Values.eval_env t.env lo) in
      let hi = Values.as_int (Values.eval_env t.env hi) in
      let count = if step >= 0 then hi - lo + 1 else lo - hi + 1 in
      for k = 0 to count - 1 do
        t.env.(var) <- Values.VInt (lo + (k * step));
        t.on_scalar var t.env.(var);
        exec_stmts t kenv ~limit body
      done
  | CIf (cond, then_, else_) ->
      if Values.eval_bool t.env cond then exec_stmts t kenv ~limit then_
      else exec_stmts t kenv ~limit else_

(** Run the whole program. [limit] bounds the number of simple statements
    executed (default 10 million) and raises {!Step_limit} beyond it, so a
    buggy [repeat] cannot hang the test suite. [row_path:false] forces the
    per-point fallback everywhere — the differential-testing oracle.
    [fuse:false] keeps the row path but runs every statement alone.
    [cse:false] fuses without hoisting repeated subterms. *)
let run ?(limit = 10_000_000) ?row_path ?fuse ?cse ?on_scalar
    (prog : Zpl.Prog.t) : t =
  let t = make ?row_path ?fuse ?cse ?on_scalar prog in
  let cs, kenv = compile t prog.body in
  exec_stmts t kenv ~limit cs;
  t

let scalar_value (t : t) name =
  match Zpl.Prog.find_scalar t.prog name with
  | Some s -> Some t.env.(s.s_id)
  | None -> None

let array_store (t : t) name =
  match Zpl.Prog.find_array t.prog name with
  | Some a -> Some t.stores.(a.a_id)
  | None -> None
