(** Replicated scalar values and scalar-expression evaluation. Every
    processor evaluates scalar statements identically, so control flow
    is SPMD-consistent by construction. *)

type value = VFloat of float | VInt of int | VBool of bool
[@@deriving show, eq]

(** Numeric coercions. Each raises [Invalid_argument] on a type
    mismatch — the type checker should have ruled those out, so a raise
    here is a compiler bug, not a user error. *)

val as_float : value -> float
val as_int : value -> int
val as_bool : value -> bool

(** Zero value of a scalar type, used to initialise environments. *)
val default_of : Zpl.Ast.elem -> value

(** [resolve1 name] resolves a unary intrinsic ([abs], [sqrt], [exp],
    [ln]/[log], [sin], [cos], [tan], [floor], [sign]) to its function
    once, so hot loops pay no per-call string match. Raises
    [Invalid_argument] on an unknown name. *)
val resolve1 : string -> float -> float

val apply1 : string -> float -> float

(** Binary counterpart of {!resolve1}: [min], [max]. *)
val resolve2 : string -> float -> float -> float

val apply2 : string -> float -> float -> float

(** A mutable environment for one (simulated or sequential) processor,
    indexed by scalar id. *)
type env = value array

val make_env : Zpl.Prog.t -> env

(** [eval_env env e] evaluates a scalar expression against [env].
    Integer arithmetic stays integral; [Div] and [Pow] are always
    float; comparisons compare both operands as floats. *)
val eval_env : env -> Zpl.Prog.sexpr -> value

(** [as_bool (eval_env env e)], without building the [VBool] when [e]
    is a comparison. *)
val eval_bool : env -> Zpl.Prog.sexpr -> bool

(** Evaluate one region bound, adding the value of its scalar variable
    if present. *)
val eval_int_bound : env -> Zpl.Prog.bound -> int

(** Evaluate a dynamic region to a concrete one under [env]. *)
val eval_dregion : env -> Zpl.Prog.dregion -> Zpl.Region.t
