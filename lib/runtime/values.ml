(** Replicated scalar values and scalar-expression evaluation. Every
    processor evaluates scalar statements identically, so control flow is
    SPMD-consistent by construction. *)

type value = VFloat of float | VInt of int | VBool of bool
[@@deriving show, eq]

let as_float = function
  | VFloat f -> f
  | VInt i -> float_of_int i
  | VBool _ -> invalid_arg "boolean used as number"

let as_int = function
  | VInt i -> i
  | VFloat f when Float.is_integer f -> int_of_float f
  | VFloat _ -> invalid_arg "non-integral float used as int"
  | VBool _ -> invalid_arg "boolean used as int"

let as_bool = function
  | VBool b -> b
  | VInt _ | VFloat _ -> invalid_arg "number used as boolean"

let default_of = function
  | Zpl.Ast.TFloat -> VFloat 0.0
  | Zpl.Ast.TInt -> VInt 0
  | Zpl.Ast.TBool -> VBool false

(** [resolve1 name] resolves a unary intrinsic to its function once, so
    hot loops pay no per-call string match. *)
let resolve1 name : float -> float =
  match name with
  | "abs" -> Float.abs
  | "sqrt" -> sqrt
  | "exp" -> exp
  | "ln" | "log" -> log
  | "sin" -> sin
  | "cos" -> cos
  | "tan" -> tan
  | "floor" -> Float.floor
  | "sign" -> fun x -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0
  | _ -> invalid_arg ("unknown unary intrinsic " ^ name)

let apply1 name (x : float) : float = (resolve1 name) x

(** Binary counterpart of {!resolve1}. *)
let resolve2 name : float -> float -> float =
  match name with
  | "min" -> Float.min
  | "max" -> Float.max
  | _ -> invalid_arg ("unknown binary intrinsic " ^ name)

let apply2 name (x : float) (y : float) : float = (resolve2 name) x y

(* Operator application on evaluated operands. Top-level functions
   rather than local closures over the operands, so evaluating an
   operator allocates only its result. *)

let negate = function
  | VInt i -> VInt (-i)
  | VFloat f -> VFloat (-.f)
  | VBool _ -> invalid_arg "cannot negate a boolean"

(* Comparisons convert both operands to float, as [as_float] does; two
   ints convert inline, so comparing them boxes nothing. *)
let compare_values (op : Zpl.Ast.binop) (va : value) (vb : value) : bool =
  let x, y =
    match (va, vb) with
    | VInt x, VInt y -> (float_of_int x, float_of_int y)
    | _ -> (as_float va, as_float vb)
  in
  match op with
  | Zpl.Ast.Lt -> x < y
  | Zpl.Ast.Le -> x <= y
  | Zpl.Ast.Gt -> x > y
  | Zpl.Ast.Ge -> x >= y
  | Zpl.Ast.Eq -> x = y
  | Zpl.Ast.Ne -> x <> y
  | Zpl.Ast.Add | Zpl.Ast.Sub | Zpl.Ast.Mul | Zpl.Ast.Div | Zpl.Ast.Pow
  | Zpl.Ast.And | Zpl.Ast.Or ->
      invalid_arg "Values.compare_values: not a comparison"

let apply_bin (op : Zpl.Ast.binop) (va : value) (vb : value) : value =
  match op with
  | Zpl.Ast.Add -> (
      match (va, vb) with
      | VInt x, VInt y -> VInt (x + y)
      | _ -> VFloat (as_float va +. as_float vb))
  | Zpl.Ast.Sub -> (
      match (va, vb) with
      | VInt x, VInt y -> VInt (x - y)
      | _ -> VFloat (as_float va -. as_float vb))
  | Zpl.Ast.Mul -> (
      match (va, vb) with
      | VInt x, VInt y -> VInt (x * y)
      | _ -> VFloat (as_float va *. as_float vb))
  | Zpl.Ast.Div -> VFloat (as_float va /. as_float vb)
  | Zpl.Ast.Pow -> VFloat (Float.pow (as_float va) (as_float vb))
  | Zpl.Ast.Lt | Zpl.Ast.Le | Zpl.Ast.Gt | Zpl.Ast.Ge | Zpl.Ast.Eq
  | Zpl.Ast.Ne ->
      VBool (compare_values op va vb)
  | Zpl.Ast.And -> VBool (as_bool va && as_bool vb)
  | Zpl.Ast.Or -> VBool (as_bool va || as_bool vb)

(** A mutable environment for one (simulated or sequential) processor. *)
type env = value array

let make_env (p : Zpl.Prog.t) : env =
  Array.map (fun (s : Zpl.Prog.scalar_info) -> default_of s.s_ty) p.scalars

(* Variables are read from the env array directly: a lookup closure
   would be allocated on every scalar op and branch the engine runs. *)
let rec eval_env (env : env) (e : Zpl.Prog.sexpr) : value =
  match e with
  | Zpl.Prog.SFloat f -> VFloat f
  | Zpl.Prog.SInt i -> VInt i
  | Zpl.Prog.SBool b -> VBool b
  | Zpl.Prog.SVar id -> env.(id)
  | Zpl.Prog.SUn (Zpl.Ast.Neg, a) -> negate (eval_env env a)
  | Zpl.Prog.SUn (Zpl.Ast.Not, a) -> VBool (not (as_bool (eval_env env a)))
  | Zpl.Prog.SBin (op, a, b) ->
      let va = eval_env env a and vb = eval_env env b in
      apply_bin op va vb
  | Zpl.Prog.SCall (f, [ a ]) -> VFloat (apply1 f (as_float (eval_env env a)))
  | Zpl.Prog.SCall (f, [ a; b ]) ->
      VFloat
        (apply2 f (as_float (eval_env env a)) (as_float (eval_env env b)))
  | Zpl.Prog.SCall (f, _) -> invalid_arg ("bad arity for intrinsic " ^ f)

(* A comparison, the usual branch condition, yields its bool without
   the [VBool] a full evaluation would build. *)
let eval_bool (env : env) (e : Zpl.Prog.sexpr) =
  match e with
  | Zpl.Prog.SBin
      ( ((Zpl.Ast.Lt | Zpl.Ast.Le | Zpl.Ast.Gt | Zpl.Ast.Ge | Zpl.Ast.Eq
         | Zpl.Ast.Ne) as op),
        a,
        b ) ->
      let va = eval_env env a and vb = eval_env env b in
      compare_values op va vb
  | _ -> as_bool (eval_env env e)

let eval_int_bound (env : env) (b : Zpl.Prog.bound) =
  match b.bvar with
  | None -> b.base
  | Some v -> b.base + as_int env.(v)

let eval_dregion (env : env) (dr : Zpl.Prog.dregion) : Zpl.Region.t =
  Zpl.Prog.eval_dregion (fun v -> as_int env.(v)) dr
