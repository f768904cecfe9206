(** Typed mini-ZPL programs, the output of {!Check} and the input of the
    communication optimizer.

    All names are resolved to dense integer ids. Arrays are rank 2 or 3,
    float-valued, block-distributed over the first two dimensions; scalars
    are replicated. Regions appearing in statements may have bounds of the
    affine form [var + const] so that `for` loops can sweep rows/planes. *)

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
  | SBin of Ast.binop * sexpr * sexpr
  | SUn of Ast.unop * sexpr
  | SCall of string * sexpr list
[@@deriving show, eq]

(** Per-cell array expressions evaluated over a region. *)
type aexpr =
  | AConst of float
  | AScalar of int  (** replicated scalar broadcast into every cell *)
  | ARef of int * offset  (** array id, shift; zero vector for a plain ref *)
  | AIndex of int  (** ZPL's IndexD: the cell's coordinate in dimension D *)
  | ABin of Ast.binop * aexpr * aexpr
  | AUn of Ast.unop * aexpr
  | ACall of string * aexpr list
[@@deriving show, eq]

(** One region bound: [base] plus an optional int scalar variable. *)
type bound = { base : int; bvar : int option } [@@deriving show, eq]

(** A possibly loop-variant region: per-dimension (lo, hi) bounds. *)
type dregion = (bound * bound) array [@@deriving show, eq]

type assign_a = { region : dregion; lhs : int; rhs : aexpr; flops : int }
[@@deriving show, eq]

type reduce_s = {
  r_lhs : int;
  r_op : Ast.redop;
  r_region : dregion;
  r_rhs : aexpr;
  r_flops : int;
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
(* Static properties used by the optimizer and cost model              *)
(* ------------------------------------------------------------------ *)

(** The mesh-visible part of a shift: its first two components. Rank-3
    arrays keep dimension 2 entirely local, so a shift along dimension 2
    alone needs no communication. *)
let comm_offset (off : offset) : (int * int) option =
  let d0 = off.(0) and d1 = if Array.length off >= 2 then off.(1) else 0 in
  if d0 = 0 && d1 = 0 then None else Some (d0, d1)

(** Distinct (array, mesh offset) pairs that require communication before
    evaluating [e]. Order of first occurrence is preserved. *)
let comm_needs (e : aexpr) : (int * (int * int)) list =
  let acc = ref [] in
  let add aid d = if not (List.mem (aid, d) !acc) then acc := (aid, d) :: !acc in
  let rec go = function
    | AConst _ | AScalar _ | AIndex _ -> ()
    | ARef (aid, off) -> (
        match comm_offset off with None -> () | Some d -> add aid d)
    | ABin (_, a, b) ->
        go a;
        go b
    | AUn (_, a) -> go a
    | ACall (_, args) -> List.iter go args
  in
  go e;
  List.rev !acc

(** All arrays read by [e] (with or without a shift). *)
let arrays_read (e : aexpr) : int list =
  let acc = ref [] in
  let add aid = if not (List.mem aid !acc) then acc := aid :: !acc in
  let rec go = function
    | AConst _ | AScalar _ | AIndex _ -> ()
    | ARef (aid, _) -> add aid
    | ABin (_, a, b) ->
        go a;
        go b
    | AUn (_, a) -> go a
    | ACall (_, args) -> List.iter go args
  in
  go e;
  List.rev !acc

let call_flops = function
  | "abs" | "min" | "max" | "sign" | "floor" -> 1
  | "sqrt" -> 8
  | "exp" | "ln" | "log" | "sin" | "cos" | "tan" -> 16
  | _ -> 4

let binop_flops = function
  | Ast.Add | Ast.Sub | Ast.Mul -> 1
  | Ast.Div -> 4
  | Ast.Pow -> 8
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or -> 1

(** Approximate floating-point operations per cell for the cost model. *)
let rec flops_of_aexpr = function
  | AConst _ | AScalar _ | AIndex _ -> 0
  | ARef _ -> 0
  | ABin (op, a, b) -> binop_flops op + flops_of_aexpr a + flops_of_aexpr b
  | AUn (_, a) -> 1 + flops_of_aexpr a
  | ACall (f, args) ->
      call_flops f + List.fold_left (fun n a -> n + flops_of_aexpr a) 0 args

(** A static region, if the bounds reference no variables. *)
let static_region (dr : dregion) : Region.t option =
  if
    Array.for_all (fun (lo, hi) -> lo.bvar = None && hi.bvar = None) dr
  then Some (Array.map (fun (lo, hi) -> { Region.lo = lo.base; hi = hi.base }) dr)
  else None

let dregion_of_region (r : Region.t) : dregion =
  Array.map (fun { Region.lo; hi } -> ({ base = lo; bvar = None }, { base = hi; bvar = None })) r

(** Maximum absolute shift used against each array in each mesh dimension:
    the ghost (fringe) width the runtime must allocate. *)
let fringe_widths (p : t) : int array =
  (* per array: max over both mesh dims *)
  let w = Array.make (Array.length p.arrays) 0 in
  let rec go_e = function
    | AConst _ | AScalar _ | AIndex _ -> ()
    | ARef (aid, off) ->
        let d0 = abs off.(0) in
        let d1 = if Array.length off >= 2 then abs off.(1) else 0 in
        w.(aid) <- max w.(aid) (max d0 d1)
    | ABin (_, a, b) ->
        go_e a;
        go_e b
    | AUn (_, a) -> go_e a
    | ACall (_, args) -> List.iter go_e args
  in
  let rec go_s = function
    | AssignA { rhs; _ } -> go_e rhs
    | ReduceS { r_rhs; _ } -> go_e r_rhs
    | AssignS _ -> ()
    | Repeat (body, _) -> List.iter go_s body
    | For { body; _ } -> List.iter go_s body
    | If (_, a, b) ->
        List.iter go_s a;
        List.iter go_s b
  in
  List.iter go_s p.body;
  w

(** Count statements, for reporting. *)
let rec count_stmts stmts =
  List.fold_left
    (fun n s ->
      n
      +
      match s with
      | AssignA _ | AssignS _ | ReduceS _ -> 1
      | Repeat (b, _) -> 1 + count_stmts b
      | For { body; _ } -> 1 + count_stmts body
      | If (_, a, b) -> 1 + count_stmts a + count_stmts b)
    0 stmts
