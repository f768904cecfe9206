(** Sequential reference executor: runs a typed program directly on global
    (undistributed) storage. This is the semantic oracle every optimizer
    configuration and machine model is tested against.

    The program compiles once into a chain of closures: array statements
    carry a store-agnostic kernel plan (row-compiled fast path by
    default, per-point when [row_path] is off), and scalar statements,
    conditions and [for] bounds one {!Values} program over typed slots
    — the compilers the simulator uses. All plans of a run share one {!Kernel.env} binding
    the global stores and the slots. A statement runs over its whole
    evaluated region, which the statement-region rule
    ({!Zpl.Prog.check_region}) keeps inside the declared arrays. *)

type t = {
  prog : Zpl.Prog.t;
  space : Zpl.Region.t;
  stores : Store.t array;
  scalars : Values.layout;
  slots : Values.slots;
  kenv : Kernel.env;
  bounds : int array array;  (** per region rank: the region scratch *)
  on_scalar : (int -> Values.value -> unit) option;
      (** observation hook, called after every scalar write *)
  limit : int;
  mutable steps : int;  (** simple statements executed *)
  mutable cells : int;  (** array cells updated or reduced *)
}

(* the budget is checked before each statement and once at the end, so
   a run stops when its work passes [limit] *)
let check t =
  if t.steps + t.cells > t.limit then raise (Budget.Exceeded t.limit)

let bump t =
  t.steps <- t.steps + 1;
  check t

let observe t id =
  match t.on_scalar with
  | None -> ()
  | Some f -> f id (Values.read_value t.scalars t.slots id)

(** The bounds of the region [s] iterates, evaluated into [t]'s scratch
    for its rank; a loop-variant region is checked against the
    statement-region rule (the checker checked a static one). *)
let eval_region (type s) t (over : s Zpl.Prog.over) (s : s) =
  let dr = Zpl.Prog.over_region over s in
  let b = t.bounds.(Array.length dr) in
  Values.bounds t.scalars t.slots dr b;
  if not (Zpl.Prog.is_static dr) then
    Zpl.Prog.check_region t.prog.arrays t.space over s b;
  b

(* Each statement compiles to a closure taking the executor; a block
   runs its statements through a chain of closures, which allocates
   nothing (a [List.iter] over a partial application would allocate a
   closure per run of the block). *)
let rec compile_block ~row sc rc (stmts : Zpl.Prog.stmt list) : t -> unit =
  match stmts with
  | [] -> fun _ -> ()
  | [ s ] -> compile_stmt ~row sc rc s
  | s :: rest ->
      let c = compile_stmt ~row sc rc s and r = compile_block ~row sc rc rest in
      fun t ->
        c t;
        r t

and compile_stmt ~row sc (rc : Kernel.rowctx) (s : Zpl.Prog.stmt) : t -> unit =
  match s with
  | Zpl.Prog.AssignA a ->
      let plan = Kernel.plan_assign ~row rc a in
      fun t ->
        bump t;
        let bounds = eval_region t Zpl.Prog.Assign a in
        t.cells <-
          t.cells
          + Kernel.exec_plan plan ~env:t.kenv ~lhs:t.stores.(a.lhs) ~bounds
  | Zpl.Prog.AssignS { lhs; rhs; _ } ->
      let code = Values.assign sc ~lhs rhs in
      fun t ->
        bump t;
        code t.slots;
        observe t lhs
  | Zpl.Prog.ReduceS r ->
      let plan = Kernel.plan_reduce ~row rc r in
      fun t ->
        bump t;
        let bounds = eval_region t Zpl.Prog.Reduce r in
        t.slots.f.(Values.slot t.scalars r.r_lhs) <-
          Kernel.exec_rplan plan ~env:t.kenv ~bounds r.r_op;
        t.cells <- t.cells + Zpl.Region.bounds_size bounds;
        observe t r.r_lhs
  | Zpl.Prog.Repeat (body, cond) ->
      let body = compile_block ~row sc rc body and cond = Values.cond sc cond in
      fun t ->
        body t;
        while not (cond t.slots) do
          body t
        done
  | Zpl.Prog.For { var; lo; hi; step; body } ->
      let lo = Values.int_expr sc lo and hi = Values.int_expr sc hi in
      let body = compile_block ~row sc rc body in
      fun t ->
        let lo = lo t.slots and hi = hi t.slots in
        let count = if step >= 0 then hi - lo + 1 else lo - hi + 1 in
        for k = 0 to count - 1 do
          t.slots.i.(Values.slot t.scalars var) <- lo + (k * step);
          observe t var;
          body t
        done
  | Zpl.Prog.If (cond, then_, else_) ->
      let cond = Values.cond sc cond in
      let then_ = compile_block ~row sc rc then_
      and else_ = compile_block ~row sc rc else_ in
      fun t -> if cond t.slots then then_ t else else_ t

(** Run the whole program. Array statements compile into kernel plans,
    and scalar code, conditions and [for] bounds into one {!Values}
    program, before anything runs. [limit] is the run's work budget
    ({!Budget}): the global stores must fit in it, and the statements
    and cells executed may not pass it. [row_path:false] forces the
    per-point path everywhere — the differential-testing oracle. *)
let run ?(limit = Budget.default) ?(row_path = true) ?on_scalar
    (prog : Zpl.Prog.t) : t =
  Budget.check_alloc ~limit
    (Array.map
       (fun (info : Zpl.Prog.array_info) -> (info, Budget.cells info.a_region))
       prog.arrays);
  let stores =
    Array.map
      (fun (info : Zpl.Prog.array_info) ->
        Store.make info ~owned:info.a_region ~fringe:0)
      prog.arrays
  in
  let scalars = Values.layout_of_prog prog in
  let sc = Values.compiler scalars and ws = Kernel.make_ws scalars in
  let rc = { Kernel.rstore = (fun aid -> stores.(aid)); rws = ws } in
  let code = compile_block ~row:row_path sc rc prog.body in
  let slots = Values.make_slots (Values.spec sc) in
  let kenv = Kernel.make_env ~stores ~slots
      (Kernel.make_workspace (Kernel.ws_spec ws)) in
  let t =
    { prog; space = Zpl.Prog.index_space prog.arrays; stores; scalars; slots;
      kenv; bounds = Array.init 4 (fun r -> Array.make (2 * r) 0);
      on_scalar; limit; steps = 0; cells = 0 }
  in
  code t;
  check t;
  t

let scalar_value (t : t) name =
  Zpl.Prog.find_scalar t.prog name
  |> Option.map (fun (s : Zpl.Prog.scalar_info) ->
         Values.read_value t.scalars t.slots s.s_id)

let array_store (t : t) name =
  Zpl.Prog.find_array t.prog name
  |> Option.map (fun (a : Zpl.Prog.array_info) -> t.stores.(a.a_id))
