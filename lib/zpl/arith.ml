(** The operators and intrinsics of mini-ZPL, typed by class, and their
    run-time semantics, defined once: the constant folder
    ({!Check.fold_sexpr}), the scalar executors ([Runtime.Values]) and
    the array kernels ([Runtime.Kernel]) all evaluate through these, so
    a folded literal is the value the program would have computed. The
    type rule that decides whether a scalar node is an int, a float or
    a bool is {!Prog.int_op} and {!Prog.sexpr_type}.

    The executors keep floats in a slot array, and a float passed to or
    returned from a call that is not inlined is boxed, so each float
    operator also comes in a slot form that reads and writes the array
    here: no float crosses the module boundary. *)

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

(** The operators typed by class. An array expression holds only
    {!arith} (and negation); a scalar expression holds each class in
    its own constructor. [ring] is the part of {!arith} that keeps two
    int operands an int (see {!Prog.int_op}), a polymorphic-variant
    subtype so that {!int_arith} is total over it. *)
type ring = [ `Add | `Sub | `Mul ] [@@deriving show, eq]

type arith = [ ring | `Div | `Pow ] [@@deriving show, eq]
type comparison = Lt | Le | Gt | Ge | Eq | Ne [@@deriving show, eq]
type connective = And | Or [@@deriving show, eq]
type op = Arith of arith | Compare of comparison | Logic of connective

(** The operator table: each source operator and its class. The checker
    maps every operator through it once; the printers name an operator
    by the source spelling it came from. *)
let operators =
  [ (Ast.Add, Arith `Add); (Ast.Sub, Arith `Sub); (Ast.Mul, Arith `Mul);
    (Ast.Div, Arith `Div); (Ast.Pow, Arith `Pow); (Ast.Lt, Compare Lt);
    (Ast.Le, Compare Le); (Ast.Gt, Compare Gt); (Ast.Ge, Compare Ge);
    (Ast.Eq, Compare Eq); (Ast.Ne, Compare Ne); (Ast.And, Logic And);
    (Ast.Or, Logic Or) ]

let classify (op : Ast.binop) = List.assoc op operators
let op_name o = Ast.binop_name (fst (List.find (fun (_, p) -> p = o) operators))

(** Approximate floating-point operations per cell, for the cost model. *)
let arith_flops : arith -> int = function
  | #ring -> 1
  | `Div -> 4
  | `Pow -> 8

(** A {!ring} operator over ints (wrapping at 63 bits). *)
let[@inline] int_arith (op : ring) (x : int) y =
  match op with `Add -> x + y | `Sub -> x - y | `Mul -> x * y

(** Whether {!int_arith} [op x y] wraps: its exact value lies outside
    the int range. *)
let int_wraps (op : ring) (x : int) y =
  match op with
  | `Add -> x >= 0 = (y >= 0) && x + y >= 0 <> (x >= 0)
  | `Sub -> x >= 0 <> (y >= 0) && x - y >= 0 <> (x >= 0)
  | `Mul -> x <> 0 && ((x * y / x <> y) || (x = -1 && y = min_int))

(** An arithmetic operator over floats (int operands converted first). *)
let[@inline] float_arith (op : arith) (x : float) y =
  match op with
  | `Add -> x +. y
  | `Sub -> x -. y
  | `Mul -> x *. y
  | `Div -> x /. y
  | `Pow -> Float.pow x y

(** [float_arith] over slots: [f.(dst) <- f.(x) op f.(y)]. *)
let set_float_arith (op : arith) (f : float array) ~dst x y =
  f.(dst) <- float_arith op f.(x) f.(y)

(** Comparisons compare as floats, int operands converted first. *)
let[@inline] compare (op : comparison) (x : float) y =
  match op with
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | Eq -> x = y
  | Ne -> x <> y

(** [compare] over slots [f.(x)] and [f.(y)]. *)
let compare_slots op (f : float array) x y = compare op f.(x) f.(y)

(** [compare] of two ints, converted to floats. *)
let compare_ints op (x : int) y = compare op (float_of_int x) (float_of_int y)

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                          *)
(* ------------------------------------------------------------------ *)

(** The one-argument intrinsics. [Ln] and [Log] are the one function
    under two spellings, kept apart so each prints as written. *)
type unary = Abs | Sqrt | Exp | Ln | Log | Sin | Cos | Tan | Floor | Sign
[@@deriving show, eq]

(** The two-argument intrinsics. *)
type binary = Min | Max [@@deriving show, eq]

(** An intrinsic call over arguments of type ['e]: the constructor fixes
    the arity, so a checked call always has the arguments its function
    takes. *)
type 'e call = Call1 of unary * 'e | Call2 of binary * 'e * 'e
[@@deriving show, eq]

type intrinsic = Unary of unary | Binary of binary

(** The intrinsic table: each source spelling and its function. The
    checker resolves every call through it; nothing else matches a name. *)
let intrinsics =
  [ ("abs", Unary Abs); ("sqrt", Unary Sqrt); ("exp", Unary Exp);
    ("ln", Unary Ln); ("log", Unary Log); ("sin", Unary Sin);
    ("cos", Unary Cos); ("tan", Unary Tan); ("floor", Unary Floor);
    ("sign", Unary Sign); ("min", Binary Min); ("max", Binary Max) ]

let arity = function Unary _ -> 1 | Binary _ -> 2
let name i = fst (List.find (fun (_, j) -> j = i) intrinsics)

(** Approximate floating-point operations per call, for the cost model. *)
let flops = function
  | Unary (Abs | Floor | Sign) | Binary _ -> 1
  | Unary Sqrt -> 8
  | Unary (Exp | Ln | Log | Sin | Cos | Tan) -> 16

let[@inline] unary u x =
  match u with
  | Abs -> Float.abs x
  | Sqrt -> sqrt x
  | Exp -> exp x
  | Ln | Log -> log x
  | Sin -> sin x
  | Cos -> cos x
  | Tan -> tan x
  | Floor -> Float.floor x
  | Sign -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0

let[@inline] binary b x y =
  match b with Min -> Float.min x y | Max -> Float.max x y

let call_intrinsic = function
  | Call1 (u, _) -> Unary u
  | Call2 (b, _, _) -> Binary b

let call_args = function Call1 (_, a) -> [ a ] | Call2 (_, a, b) -> [ a; b ]

let map_call f = function
  | Call1 (u, a) -> Call1 (u, f a)
  | Call2 (b, x, y) ->
      let x = f x in
      Call2 (b, x, f y)
