(** Replicated scalars. Each scalar owns a slot in one [float array] or
    one [int array] (bools are 0/1 ints), chosen by its checked type.
    Scalar code compiles once, at plan time, into closures over those
    slots; every processor runs the same code, so control flow is
    SPMD-consistent by construction. The closures allocate nothing and
    capture no executor state: one compiled program serves every
    executor, each with its own {!slots}.

    Semantics: each node's type is {!Zpl.Prog}'s type rule
    ({!Zpl.Prog.sexpr_type}, {!Zpl.Prog.int_op}), the checker's: int
    [+ - *] of two ints stays int and wraps at 63 bits; mixed int/float
    arithmetic is float; [/], [^] and intrinsics always yield a float;
    comparisons convert both sides to float (so [2^53 + 1 = 2^53]
    holds). A float scalar assigned an int expression stores its float
    conversion. Operators and intrinsics arrive typed by class and
    evaluate through {!Zpl.Arith}, so no operator or name is matched
    against a class it cannot have. The checker rules out a float where
    an int or a bool is read (an int scalar's value, a condition, a
    [for] bound); the compiler raises [Invalid_argument] if it meets
    one. *)

(** A scalar read back at its declared type. *)
type value = VFloat of float | VInt of int | VBool of bool
[@@deriving show, eq]

(** One executor's scalars: float scalars in [f], int and bool scalars
    in [i], each at its {!slot}; float slots past the float scalars are
    the compiled code's temps. *)
type slots = { f : float array; i : int array }

(** Where each scalar of a program lives: the float scalars take the
    float slots in id order, the others the int slots. *)
type layout

val layout : Zpl.Ast.elem array -> layout
val layout_of_prog : Zpl.Prog.t -> layout
val slot : layout -> int -> int
val is_int : layout -> int -> bool
val read_value : layout -> slots -> int -> value
val read_all : layout -> slots -> value array

(** Compiler state over one layout: it hands out the temp slots of the
    code it emits. Compile a program's scalar code with one compiler —
    assignments to scalar [lhs], conditions, [for] bounds — then mint
    slots from its {!spec}. *)
type compiler

val compiler : layout -> compiler
val assign : compiler -> lhs:int -> Zpl.Prog.sexpr -> slots -> unit
val cond : compiler -> Zpl.Prog.sexpr -> slots -> bool
val int_expr : compiler -> Zpl.Prog.sexpr -> slots -> int

(** Raise [Invalid_argument] if a region bound reads a scalar that is
    not an int, so that {!bounds} reads int slots unchecked. *)
val check_dregion : layout -> Zpl.Prog.dregion -> unit

(** [bounds l s dr b] evaluates [dr] under [s] into [b] (length twice
    [dr]'s rank), in the form {!Zpl.Region.row_count} and
    {!Zpl.Prog.check_region} take: lo and hi of dimension [d] at
    [b.(2d)] and [b.(2d+1)]. It allocates nothing. *)
val bounds : layout -> slots -> Zpl.Prog.dregion -> int array -> unit

type spec

val spec : compiler -> spec

(** Fresh slots, every scalar at its type's zero. *)
val make_slots : spec -> slots
