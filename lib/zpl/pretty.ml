(** Pretty-printing of typed programs, used by the [zplc] CLI's dump modes
    and by tests to give readable failure output. *)

open Prog

let offset_to_string off =
  "["
  ^ String.concat "," (List.map string_of_int (Array.to_list off))
  ^ "]"

(** A float literal: the [%g] text with the fewest significant digits
    that reads back to [f], with a point or an exponent so that it lexes
    as a float. A normal float needing at most 15 digits prints its
    fewest at 15 (15-digit decimals survive a trip through a float);
    a subnormal may need fewer. *)
let float_to_string f =
  let rec shortest digits =
    let s = Printf.sprintf "%.*g" digits f in
    if digits >= 17 || float_of_string s = f then s else shortest (digits + 1)
  in
  let s = shortest (if Float.abs f < Float.min_float then 1 else 15) in
  if Float.is_finite f && not (String.exists (fun c -> c = '.' || c = 'e') s)
  then s ^ ".0"
  else s

let bound_to_string (p : t) { base; bvar } =
  match bvar with
  | None -> string_of_int base
  | Some v ->
      let name = (scalar_info p v).s_name in
      if base = 0 then name
      else if base > 0 then Printf.sprintf "%s+%d" name base
      else Printf.sprintf "%s-%d" name (-base)

let dregion_to_string (p : t) (dr : dregion) =
  dr
  |> Array.to_list
  |> List.map (fun (lo, hi) ->
         Printf.sprintf "%s..%s" (bound_to_string p lo) (bound_to_string p hi))
  |> String.concat ", "
  |> Printf.sprintf "[%s]"

let call_to_string to_string c =
  Printf.sprintf "%s(%s)"
    (Arith.name (Arith.call_intrinsic c))
    (String.concat ", " (List.map to_string (Arith.call_args c)))

let bin_to_string to_string op a b =
  Printf.sprintf "(%s %s %s)" (to_string a) (Arith.op_name op) (to_string b)

let rec sexpr_to_string (p : t) = function
  | SFloat f -> float_to_string f
  | SInt i -> string_of_int i
  | SBool b -> string_of_bool b
  | SVar id -> (scalar_info p id).s_name
  | SArith (op, a, b) -> bin_to_string (sexpr_to_string p) (Arith.Arith op) a b
  | SCompare (op, a, b) ->
      bin_to_string (sexpr_to_string p) (Arith.Compare op) a b
  | SLogic (op, a, b) -> bin_to_string (sexpr_to_string p) (Arith.Logic op) a b
  | SNeg a -> Printf.sprintf "(-%s)" (sexpr_to_string p a)
  | SNot a -> Printf.sprintf "(not %s)" (sexpr_to_string p a)
  | SCall c -> call_to_string (sexpr_to_string p) c

let rec aexpr_to_string (p : t) = function
  | AConst f -> float_to_string f
  | AScalar id -> (scalar_info p id).s_name
  | AIndex d -> Printf.sprintf "Index%d" (d + 1)
  | ARef (aid, off) ->
      let name = (array_info p aid).a_name in
      if Array.for_all (fun d -> d = 0) off then name
      else Printf.sprintf "%s@%s" name (offset_to_string off)
  | AArith (op, a, b) -> bin_to_string (aexpr_to_string p) (Arith.Arith op) a b
  | ANeg a -> Printf.sprintf "(-%s)" (aexpr_to_string p a)
  | ACall c -> call_to_string (aexpr_to_string p) c

let rec stmt_lines (p : t) ~indent (s : stmt) : string list =
  let pad = String.make indent ' ' in
  match s with
  | AssignA { region; lhs; rhs; _ } ->
      [ Printf.sprintf "%s%s %s := %s;" pad (dregion_to_string p region)
          (array_info p lhs).a_name (aexpr_to_string p rhs) ]
  | AssignS { lhs; rhs; _ } ->
      [ Printf.sprintf "%s%s := %s;" pad (scalar_info p lhs).s_name
          (sexpr_to_string p rhs) ]
  | ReduceS { r_lhs; r_op; r_region; r_rhs; _ } ->
      [ Printf.sprintf "%s%s %s := %s %s;" pad
          (dregion_to_string p r_region)
          (scalar_info p r_lhs).s_name (Ast.redop_name r_op)
          (aexpr_to_string p r_rhs) ]
  | Repeat (body, cond) ->
      (Printf.sprintf "%srepeat" pad
      :: List.concat_map (stmt_lines p ~indent:(indent + 2)) body)
      @ [ Printf.sprintf "%suntil %s;" pad (sexpr_to_string p cond) ]
  | For { var; lo; hi; step; body } ->
      (Printf.sprintf "%sfor %s := %s %s %s do" pad (scalar_info p var).s_name
         (sexpr_to_string p lo)
         (if step >= 0 then "to" else "downto")
         (sexpr_to_string p hi)
      :: List.concat_map (stmt_lines p ~indent:(indent + 2)) body)
      @ [ Printf.sprintf "%send;" pad ]
  | If (cond, then_, else_) ->
      (Printf.sprintf "%sif %s then" pad (sexpr_to_string p cond)
      :: List.concat_map (stmt_lines p ~indent:(indent + 2)) then_)
      @ (if else_ = [] then []
         else
           Printf.sprintf "%selse" pad
           :: List.concat_map (stmt_lines p ~indent:(indent + 2)) else_)
      @ [ Printf.sprintf "%send;" pad ]

(** The program as source that checks back to it. Checking a [for]
    makes the loop's scalar, so loop scalars are not declared: two loops
    over [i] would otherwise declare [i] twice. *)
let program_to_string (p : t) =
  let loop_vars =
    fold_stmts
      (fun acc -> function For { var; _ } -> var :: acc | _ -> acc)
      [] p.body
  in
  let decls =
    (p.arrays |> Array.to_list
    |> List.map (fun a ->
           Printf.sprintf "var %s : %s float;" a.a_name
             (Region.to_string a.a_region)))
    @ (p.scalars |> Array.to_list
      |> List.filter (fun s -> not (List.mem s.s_id loop_vars))
      |> List.map (fun s ->
             Printf.sprintf "var %s : %s;" s.s_name
               (match s.s_ty with
               | Ast.TFloat -> "float"
               | Ast.TInt -> "int"
               | Ast.TBool -> "bool")))
  in
  String.concat "\n"
    (decls
    @ [ Printf.sprintf "procedure %s();" p.name; "begin" ]
    @ List.concat_map (stmt_lines p ~indent:2) p.body
    @ [ "end;" ])
