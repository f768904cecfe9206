(** Typed mini-ZPL programs, the output of {!Check} and the input of the
    communication optimizer.

    All names are resolved to dense integer ids. Arrays are rank 2 or 3,
    float-valued, block-distributed over the first two dimensions; scalars
    are replicated. Regions appearing in statements may have bounds of the
    affine form [var + const] so that `for` loops can sweep rows/planes.
    Operators are typed by class ({!Arith.op}) and an intrinsic call is
    a typed {!Arith.call}, each resolved once by the checker against
    {!Arith.operators} and {!Arith.intrinsics}: an array expression can
    hold only arithmetic, negation and intrinsics. The type rule of a
    scalar node is decided here once ({!int_op}, {!sexpr_type}), and
    the checker, the scalar compiler and the interval analysis all
    follow it. So is the statement-region rule ({!check_region}), the
    one test of which cells an assignment or a reduction may touch,
    which the checker applies to static regions and both executors to
    loop-variant ones.

    This module also holds the one traversal of the program: what an
    expression or statement reads ({!fold_refs}, {!aexpr_reads},
    {!sexpr_reads}, {!stmt_reads}) and what a statement list writes
    ({!scalar_writes}), over {!fold_stmts}. Analyses that only ask what
    is read or written build on these; the evaluators, compilers and
    printers, which tell every constructor apart, match the types
    themselves. *)

type offset = int array [@@deriving show, eq, ord]

type array_info = {
  a_id : int;
  a_name : string;
  a_region : Region.t;  (** declared extent, including any border cells *)
  a_rank : int;
}
[@@deriving show, eq]

type scalar_info = {
  s_id : int;
  s_name : string;
  s_ty : Ast.elem;
  s_loc : Loc.t;  (** declaration site ({!Loc.dummy} for synthetic ids) *)
}
[@@deriving show, eq]

(** A [constant] declaration, retained for diagnostics only — its value
    is folded into every use site by the checker, so nothing downstream
    evaluates it. *)
type const_info = {
  c_name : string;
  c_loc : Loc.t;
  c_used : bool;  (** referenced anywhere in the checked program *)
  c_overridden : bool;  (** value supplied by a [-D] define *)
}
[@@deriving show, eq]

(** Scalar (replicated) expressions: conditions, loop bounds, scalar rhs. *)
type sexpr =
  | SFloat of float
  | SInt of int
  | SBool of bool
  | SVar of int
  | SArith of Arith.arith * sexpr * sexpr
  | SNeg of sexpr
  | SCompare of Arith.comparison * sexpr * sexpr
  | SLogic of Arith.connective * sexpr * sexpr
  | SNot of sexpr
  | SCall of sexpr Arith.call
[@@deriving show, eq]

(** Per-cell array expressions evaluated over a region. *)
type aexpr =
  | AConst of float
  | AScalar of int  (** replicated scalar broadcast into every cell *)
  | ARef of int * offset  (** array id, shift; zero vector for a plain ref *)
  | AIndex of int  (** ZPL's IndexD: the cell's coordinate in dimension D *)
  | AArith of Arith.arith * aexpr * aexpr
  | ANeg of aexpr
  | ACall of aexpr Arith.call
[@@deriving show, eq]

(** One region bound: [base] plus an optional int scalar variable. *)
type bound = { base : int; bvar : int option } [@@deriving show, eq]

(** A possibly loop-variant region: per-dimension (lo, hi) bounds. *)
type dregion = (bound * bound) array [@@deriving show, eq]

type assign_a = {
  region : dregion;
  lhs : int;
  rhs : aexpr;
  flops : int;
  loc : Loc.t;  (** source position, for the statement-region rule *)
}
[@@deriving show, eq]

type reduce_s = {
  r_lhs : int;
  r_op : Ast.redop;
  r_region : dregion;
  r_rhs : aexpr;
  r_flops : int;
  r_loc : Loc.t;  (** source position, for the statement-region rule *)
}
[@@deriving show, eq]

type stmt =
  | AssignA of assign_a  (** whole-array assignment over a region *)
  | AssignS of { lhs : int; rhs : sexpr; loc : Loc.t }
  | ReduceS of reduce_s  (** full reduction of an array expression to a scalar *)
  | Repeat of stmt list * sexpr
  | For of { var : int; lo : sexpr; hi : sexpr; step : int; body : stmt list }
      (** [step] is +1 ([to]) or -1 ([downto]); the loop runs while
          [var*step <= hi*step] *)
  | If of sexpr * stmt list * stmt list
[@@deriving show, eq]

type t = {
  name : string;
  arrays : array_info array;
  scalars : scalar_info array;
  consts : const_info array;  (** declared [constant]s, diagnostics only *)
  unknown_defines : string list;
      (** [-D] names that matched no [constant] declaration *)
  body : stmt list;
  source_lines : int;  (** line count of the ZPL source, for Figure 7 *)
}

let array_info (p : t) id = p.arrays.(id)
let scalar_info (p : t) id = p.scalars.(id)

let find_array (p : t) name =
  Array.to_list p.arrays |> List.find_opt (fun a -> a.a_name = name)

let find_scalar (p : t) name =
  Array.to_list p.scalars |> List.find_opt (fun s -> s.s_name = name)

(* ------------------------------------------------------------------ *)
(* The scalar type rule                                                *)
(* ------------------------------------------------------------------ *)

(** The type rule of arithmetic: [Some r] when [op] over operands of
    types [a] and [b] yields an int, evaluated by {!Arith.int_arith} [r]
    (two ints under [+ - *]); [None] when it yields a float ([/], [^],
    or a float operand). *)
let int_op (op : Arith.arith) (a : Ast.elem) (b : Ast.elem) : Arith.ring option
    =
  match (op, a, b) with
  | (#Arith.ring as r), Ast.TInt, Ast.TInt -> Some r
  | _ -> None

let arith_type op a b = if int_op op a b = None then Ast.TFloat else Ast.TInt

(** The type of a checked scalar expression, [scalar] giving each
    scalar's: literals and scalars have their own, arithmetic follows
    {!int_op}, negation keeps its operand's, intrinsics yield a float,
    and comparisons, connectives and [not] a bool. *)
let rec sexpr_type (scalar : int -> Ast.elem) = function
  | SInt _ -> Ast.TInt
  | SFloat _ | SCall _ -> Ast.TFloat
  | SBool _ | SCompare _ | SLogic _ | SNot _ -> Ast.TBool
  | SVar v -> scalar v
  | SNeg a -> sexpr_type scalar a
  | SArith (op, a, b) ->
      arith_type op (sexpr_type scalar a) (sexpr_type scalar b)

(* ------------------------------------------------------------------ *)
(* The one traversal: what expressions and statements read and write   *)
(* ------------------------------------------------------------------ *)

(* [f] over the leaves of an expression, left to right *)
let rec fold_aleaves f acc = function
  | AArith (_, a, b) -> fold_aleaves f (fold_aleaves f acc a) b
  | ANeg a -> fold_aleaves f acc a
  | ACall c -> List.fold_left (fold_aleaves f) acc (Arith.call_args c)
  | leaf -> f acc leaf

let rec fold_sleaves f acc = function
  | SArith (_, a, b) | SCompare (_, a, b) | SLogic (_, a, b) ->
      fold_sleaves f (fold_sleaves f acc a) b
  | SNeg a | SNot a -> fold_sleaves f acc a
  | SCall c -> List.fold_left (fold_sleaves f) acc (Arith.call_args c)
  | leaf -> f acc leaf

(** [fold_refs f acc e] folds [f acc aid off] over every array read of
    [e] (array id, shift), left to right, with repeats. *)
let fold_refs f acc e =
  fold_aleaves
    (fun acc -> function ARef (aid, off) -> f acc aid off | _ -> acc)
    acc e

(** The scalars [e] reads, with repeats. *)
let aexpr_reads (e : aexpr) : int list =
  fold_aleaves (fun acc -> function AScalar v -> v :: acc | _ -> acc) [] e

let sexpr_reads (e : sexpr) : int list =
  fold_sleaves (fun acc -> function SVar v -> v :: acc | _ -> acc) [] e

let dregion_reads (r : dregion) : int list =
  Array.fold_right
    (fun (lo, hi) acc -> Option.to_list lo.bvar @ Option.to_list hi.bvar @ acc)
    r []

(** The scalars a statement's own expressions and regions read; the
    statements nested in its body are not included. *)
let stmt_reads = function
  | AssignS { rhs; _ } -> sexpr_reads rhs
  | AssignA { region; rhs; _ } -> dregion_reads region @ aexpr_reads rhs
  | ReduceS r -> dregion_reads r.r_region @ aexpr_reads r.r_rhs
  | Repeat (_, cond) | If (cond, _, _) -> sexpr_reads cond
  | For { lo; hi; _ } -> sexpr_reads lo @ sexpr_reads hi

(** [fold_stmts f acc stmts] folds [f] over every statement of [stmts],
    nested ones included, each before its body. *)
let rec fold_stmts f acc stmts =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s with
      | AssignA _ | AssignS _ | ReduceS _ -> acc
      | Repeat (body, _) | For { body; _ } -> fold_stmts f acc body
      | If (_, a, b) -> fold_stmts f (fold_stmts f acc a) b)
    acc stmts

(** Every scalar [stmts] may write: scalar assignments, reduction
    targets and [for] variables, nested statements included. *)
let scalar_writes (stmts : stmt list) : int list =
  fold_stmts
    (fun acc -> function
      | AssignS { lhs; _ } -> lhs :: acc
      | ReduceS r -> r.r_lhs :: acc
      | For { var; _ } -> var :: acc
      | AssignA _ | Repeat _ | If _ -> acc)
    [] stmts

(* ------------------------------------------------------------------ *)
(* Static properties used by the optimizer and cost model              *)
(* ------------------------------------------------------------------ *)

(** The mesh-visible part of a shift: its first two components. Rank-3
    arrays keep dimension 2 entirely local, so a shift along dimension 2
    alone needs no communication. *)
let comm_offset (off : offset) : (int * int) option =
  let d0 = off.(0) and d1 = if Array.length off >= 2 then off.(1) else 0 in
  if d0 = 0 && d1 = 0 then None else Some (d0, d1)

(** [x :: acc], unless [acc] already holds [x]. *)
let add_new acc x = if List.mem x acc then acc else x :: acc

(** Distinct (array, mesh offset) pairs that require communication before
    evaluating [e]. Order of first occurrence is preserved. *)
let comm_needs (e : aexpr) : (int * (int * int)) list =
  List.rev
    (fold_refs
       (fun acc aid off ->
         match comm_offset off with
         | Some d -> add_new acc (aid, d)
         | None -> acc)
       [] e)

(** All arrays read by [e] (with or without a shift). *)
let arrays_read (e : aexpr) : int list =
  List.rev (fold_refs (fun acc aid _ -> add_new acc aid) [] e)

(** Approximate floating-point operations per cell for the cost model. *)
let rec flops_of_aexpr = function
  | AConst _ | AScalar _ | AIndex _ -> 0
  | ARef _ -> 0
  | AArith (op, a, b) ->
      Arith.arith_flops op + flops_of_aexpr a + flops_of_aexpr b
  | ANeg a -> 1 + flops_of_aexpr a
  | ACall c ->
      Arith.flops (Arith.call_intrinsic c)
      + List.fold_left (fun n a -> n + flops_of_aexpr a) 0 (Arith.call_args c)

(** Whether no bound of [dr] references a variable. Allocation-free:
    the executors ask it on every execution of a statement. *)
let is_static (dr : dregion) =
  let static = ref true in
  for d = 0 to Array.length dr - 1 do
    let lo, hi = dr.(d) in
    if lo.bvar <> None || hi.bvar <> None then static := false
  done;
  !static

(** A static region, if the bounds reference no variables. *)
let static_region (dr : dregion) : Region.t option =
  if is_static dr then
    Some (Array.map (fun (lo, hi) -> { Region.lo = lo.base; hi = hi.base }) dr)
  else None

let dregion_of_region (r : Region.t) : dregion =
  Array.map (fun { Region.lo; hi } -> ({ base = lo; bvar = None }, { base = hi; bvar = None })) r

(** Maximum absolute shift used against each array in each mesh dimension:
    the ghost (fringe) width the runtime must allocate. *)
let fringe_widths (p : t) : int array =
  (* per array: max over both mesh dims *)
  let w = Array.make (Array.length p.arrays) 0 in
  let widen () aid off =
    let d0 = abs off.(0) in
    let d1 = if Array.length off >= 2 then abs off.(1) else 0 in
    w.(aid) <- max w.(aid) (max d0 d1)
  in
  fold_stmts
    (fun () -> function
      | AssignA { rhs; _ } | ReduceS { r_rhs = rhs; _ } ->
          fold_refs widen () rhs
      | AssignS _ | Repeat _ | For _ | If _ -> ())
    () p.body;
  w

(** The index space: the hull of dimensions 0 and 1 of every declared
    array, the 2-D space the runtime distributes over the mesh. *)
let index_space (arrays : array_info array) : Region.t =
  Array.fold_left
    (fun acc a -> Region.hull acc (Array.sub a.a_region 0 2))
    (Region.make [ (0, -1); (0, -1) ])
    arrays

(** A statement that iterates a region, as {!check_region} takes it. *)
type _ over = Assign : assign_a over | Reduce : reduce_s over

let over_region : type s. s over -> s -> dregion =
 fun over s -> match over with Assign -> s.region | Reduce -> s.r_region

(* Whether dims [0 .. n-1] of the bounds [b], shifted by [off], lie
   inside [r]; a bound shifted past the int range lies outside. *)
let within b n off (r : Region.t) =
  let ok = ref true and fits x o = x + o >= x = (o >= 0) in
  for d = 0 to n - 1 do
    let lo = b.(2 * d) and hi = b.((2 * d) + 1) and o = off.(d) in
    if not (fits lo o && fits hi o && lo + o >= r.(d).lo && hi + o <= r.(d).hi)
    then ok := false
  done;
  !ok

let no_shift = [| 0; 0; 0 |]

let region_of_bounds b n =
  Region.to_string
    (Region.make (List.init n (fun d -> (b.(2 * d), b.((2 * d) + 1)))))

(* The read clause of {!check_region}, over every array read of [e] *)
let rec check_reads arrays loc b n = function
  | ARef (aid, off) ->
      let a = arrays.(aid) in
      if not (within b n off a.a_region) then
        Loc.fail loc
          "shifted reference %s@@[%s] reads outside the declared region %s"
          a.a_name
          (String.concat "," (List.map string_of_int (Array.to_list off)))
          (Region.to_string a.a_region);
      if not (within b 2 no_shift a.a_region) then
        Loc.fail loc
          "statement region %s reads %S but lies outside its declared \
           region %s"
          (region_of_bounds b n) a.a_name (Region.to_string a.a_region)
  | AArith (_, x, y) | ACall (Arith.Call2 (_, x, y)) ->
      check_reads arrays loc b n x;
      check_reads arrays loc b n y
  | ANeg x | ACall (Arith.Call1 (_, x)) -> check_reads arrays loc b n x
  | AConst _ | AScalar _ | AIndex _ -> ()

(** The statement-region rule, the one test of which cells a statement
    may touch. [b] holds the region R that [s] iterates, evaluated: the
    bounds of dimension [d] at [b.(2d)] and [b.(2d+1)]. Unless R is
    empty, fail at [s]'s position when
    - an assignment's R does not lie inside the lhs's declared region;
    - a reduction's R does not lie inside the index space [space] in
      dims 0-1 (each processor reduces its own part of the space);
    - for a read [X@off], R does not lie inside X's declared region in
      dims 0-1, or R shifted by [off] (past the int range counting as
      outside) does not lie inside it at all.
    So a processor that runs a cell of R owns part of each array it
    reads, and reads inside that part grown by the array's fringe
    ({!fringe_widths}). The checker applies the rule to static regions,
    the executors to loop-variant ones. It allocates only to fail. *)
let check_region : type s.
    array_info array -> Region.t -> s over -> s -> int array -> unit =
 fun arrays space over s b ->
  let n = Array.length (over_region over s) and empty = ref false in
  for d = 0 to n - 1 do
    if b.((2 * d) + 1) < b.(2 * d) then empty := true
  done;
  if not !empty then
    match over with
    | Assign ->
        let a = arrays.(s.lhs) in
        if not (within b n no_shift a.a_region) then
          Loc.fail s.loc
            "statement region %s is outside %S's declared region %s"
            (region_of_bounds b n) a.a_name (Region.to_string a.a_region);
        check_reads arrays s.loc b n s.rhs
    | Reduce ->
        if not (within b 2 no_shift space) then
          Loc.fail s.r_loc "%s reduces over %s, outside the index space %s"
            (Ast.redop_name s.r_op) (region_of_bounds b n)
            (Region.to_string space);
        check_reads arrays s.r_loc b n s.r_rhs

(** [r]'s bounds as {!check_region} takes them. *)
let bounds (r : Region.t) =
  Array.init (2 * Array.length r) (fun i ->
      if i land 1 = 0 then r.(i / 2).lo else r.(i / 2).hi)

(** Count statements, for reporting. *)
let count_stmts stmts = fold_stmts (fun n _ -> n + 1) 0 stmts
