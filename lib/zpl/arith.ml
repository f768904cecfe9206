(** The run-time semantics of scalar operators, defined once: the
    constant folder ({!Check.fold_sexpr}) and the scalar executors
    ([Runtime.Values]) both evaluate through these, so a folded literal
    is the value the program would have computed.

    The executors keep floats in a slot array, and a float passed to or
    returned from a call that is not inlined is boxed, so each float
    operator also comes in a slot form that reads and writes the array
    here: no float crosses the module boundary. *)

(** Whether [op] over two int operands yields an int: [+ - *], which
    wrap at 63 bits. Every other arithmetic operator ([/] and [^]), and
    any arithmetic with a float operand, yields a float. *)
let int_result (op : Ast.binop) =
  match op with Ast.Add | Ast.Sub | Ast.Mul -> true | _ -> false

(** An {!int_result} operator over ints (wrapping). *)
let[@inline] int_arith (op : Ast.binop) (x : int) y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | _ -> invalid_arg "Arith.int_arith"

(** Whether {!int_arith} [op x y] wraps: its exact value lies outside
    the int range. *)
let int_wraps (op : Ast.binop) (x : int) y =
  match op with
  | Ast.Add -> x >= 0 = (y >= 0) && x + y >= 0 <> (x >= 0)
  | Ast.Sub -> x >= 0 <> (y >= 0) && x - y >= 0 <> (x >= 0)
  | Ast.Mul -> x <> 0 && ((x * y / x <> y) || (x = -1 && y = min_int))
  | _ -> false

(** An arithmetic operator over floats (int operands converted first). *)
let[@inline] float_arith (op : Ast.binop) (x : float) y =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | Ast.Div -> x /. y
  | _ -> Float.pow x y

(** [float_arith] over slots: [f.(dst) <- f.(x) op f.(y)]. *)
let set_float_arith (op : Ast.binop) (f : float array) ~dst x y =
  f.(dst) <- float_arith op f.(x) f.(y)

(** Whether [op] is a comparison. Comparisons compare as floats, int
    operands converted first. *)
let is_compare (op : Ast.binop) =
  match op with
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> true
  | _ -> false

let[@inline] compare (op : Ast.binop) (x : float) y =
  match op with
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | Ast.Ge -> x >= y
  | Ast.Eq -> x = y
  | _ -> x <> y

(** [compare] over slots [f.(x)] and [f.(y)]. *)
let compare_slots (op : Ast.binop) (f : float array) x y = compare op f.(x) f.(y)

(** [compare] of two ints, converted to floats. *)
let compare_ints (op : Ast.binop) (x : int) y =
  compare op (float_of_int x) (float_of_int y)

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
