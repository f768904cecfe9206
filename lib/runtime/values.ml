(** Replicated scalars: typed slots and the plan-time compiler over
    them (see the interface). *)

type value = VFloat of float | VInt of int | VBool of bool
[@@deriving show, eq]

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

type slots = { f : float array; i : int array }
type layout = { tys : Zpl.Ast.elem array; slot : int array; nint : int }

let layout (tys : Zpl.Ast.elem array) : layout =
  let n = [| 0; 0 |] (* float, int slots handed out *) in
  let next k = n.(k) <- n.(k) + 1; n.(k) - 1 in
  let slot =
    Array.map (fun ty -> next (Bool.to_int (ty <> Zpl.Ast.TFloat))) tys
  in
  { tys; slot; nint = n.(1) }

let layout_of_prog (p : Zpl.Prog.t) =
  layout (Array.map (fun (s : Zpl.Prog.scalar_info) -> s.s_ty) p.scalars)

let slot (l : layout) id = l.slot.(id)
let is_int (l : layout) id = l.tys.(id) <> Zpl.Ast.TFloat

let read_value (l : layout) (s : slots) id =
  let k = l.slot.(id) in
  match l.tys.(id) with
  | Zpl.Ast.TFloat -> VFloat s.f.(k)
  | Zpl.Ast.TInt -> VInt s.i.(k)
  | Zpl.Ast.TBool -> VBool (s.i.(k) <> 0)

let read_all l s = Array.init (Array.length l.tys) (read_value l s)

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)
(*                                                                     *)
(* A closure returning a float boxes it, so a float node compiles to   *)
(* a [slots -> unit] writing its value into a float slot (the target   *)
(* or a temp its parent reads). Int and bool nodes (bools as 0/1)      *)
(* return their value unboxed. A node's type is [Zpl.Prog]'s type rule *)
(* ([sexpr_type], [int_op]), the one the checker typed it with; the    *)
(* operators are [Zpl.Arith]'s, which the constant folder evaluates    *)
(* through too.                                                        *)
(* ------------------------------------------------------------------ *)

type compiler = { l : layout; mutable nf : int  (** float slots handed out *) }

let compiler l = { l; nf = Array.length l.tys - l.nint }

let fresh c =
  c.nf <- c.nf + 1;
  c.nf - 1

let ty c e = Zpl.Prog.sexpr_type (Array.get c.l.tys) e
let ill_typed e = invalid_arg ("Values: ill-typed " ^ Zpl.Prog.show_sexpr e)

(** An int or bool node. Comparisons read both sides as floats. *)
let rec int_expr c (e : Zpl.Prog.sexpr) : slots -> int =
  match e with
  | Zpl.Prog.SInt k -> fun _ -> k
  | Zpl.Prog.SBool b ->
      let k = Bool.to_int b in
      fun _ -> k
  | Zpl.Prog.SVar v when is_int c.l v ->
      let v = c.l.slot.(v) in
      fun s -> s.i.(v)
  | Zpl.Prog.SNeg a ->
      let fa = int_expr c a in
      fun s -> -fa s
  | Zpl.Prog.SNot a ->
      let fa = int_expr c a in
      fun s -> 1 - fa s
  | Zpl.Prog.SArith (op, a, b) -> (
      match Zpl.Prog.int_op op (ty c a) (ty c b) with
      | Some r ->
          let fa = int_expr c a and fb = int_expr c b in
          fun s -> Zpl.Arith.int_arith r (fa s) (fb s)
      | None -> ill_typed e)
  | Zpl.Prog.SLogic (op, a, b) ->
      let fa = int_expr c a and fb = int_expr c b in
      if op = Zpl.Arith.And then fun s -> fa s land fb s
      else fun s -> fa s lor fb s
  | Zpl.Prog.SCompare (op, a, b) ->
      if ty c a <> Zpl.Ast.TFloat && ty c b <> Zpl.Ast.TFloat then
        let fa = int_expr c a and fb = int_expr c b in
        fun s -> Bool.to_int (Zpl.Arith.compare_ints op (fa s) (fb s))
      else
        let x = fresh c and y = fresh c in
        let fa = cfloat c a ~dst:x and fb = cfloat c b ~dst:y in
        fun s ->
          fa s;
          fb s;
          Bool.to_int (Zpl.Arith.compare_slots op s.f x y)
  | Zpl.Prog.SFloat _ | Zpl.Prog.SVar _ | Zpl.Prog.SCall _ -> ill_typed e

(** Code writing [e], an int or float node, into float slot [dst]. *)
and cfloat c (e : Zpl.Prog.sexpr) ~dst : slots -> unit =
  let arg e =
    let x = fresh c in
    (cfloat c e ~dst:x, x)
  in
  match e with
  | _ when ty c e <> Zpl.Ast.TFloat ->
      let fi = int_expr c e in
      fun s -> s.f.(dst) <- float_of_int (fi s)
  | Zpl.Prog.SFloat x -> fun s -> s.f.(dst) <- x
  | Zpl.Prog.SVar v ->
      let v = c.l.slot.(v) in
      fun s -> s.f.(dst) <- s.f.(v)
  | Zpl.Prog.SArith (op, a, b) ->
      let fa, x = arg a and fb, y = arg b in
      fun s ->
        fa s;
        fb s;
        Zpl.Arith.set_float_arith op s.f ~dst x y
  | Zpl.Prog.SNeg a ->
      let fa, x = arg a in
      fun s ->
        fa s;
        s.f.(dst) <- -.s.f.(x)
  | Zpl.Prog.SCall (Zpl.Arith.Call1 (u, a)) ->
      let fa, x = arg a in
      fun s ->
        fa s;
        s.f.(dst) <- Zpl.Arith.unary u s.f.(x)
  | Zpl.Prog.SCall (Zpl.Arith.Call2 (b, a1, a2)) ->
      let fa, x = arg a1 and fb, y = arg a2 in
      fun s ->
        fa s;
        fb s;
        s.f.(dst) <- Zpl.Arith.binary b s.f.(x) s.f.(y)
  | _ -> ill_typed e

let assign c ~lhs (e : Zpl.Prog.sexpr) : slots -> unit =
  let k = c.l.slot.(lhs) in
  if is_int c.l lhs then
    let fi = int_expr c e in
    fun s -> s.i.(k) <- fi s
  else cfloat c e ~dst:k

let cond c e =
  let fb = int_expr c e in
  fun s -> fb s <> 0

let check_dregion (l : layout) (dr : Zpl.Prog.dregion) =
  Array.iter
    (fun ((lo : Zpl.Prog.bound), (hi : Zpl.Prog.bound)) ->
      List.iter
        (function
          | Some v when l.tys.(v) <> Zpl.Ast.TInt ->
              Fmt.invalid_arg "Values: region bound reads non-int scalar %d" v
          | _ -> ())
        [ lo.bvar; hi.bvar ])
    dr

let[@inline] bound (l : layout) (s : slots) (b : Zpl.Prog.bound) =
  match b.bvar with None -> b.base | Some v -> b.base + s.i.(l.slot.(v))

let region l (s : slots) (dr : Zpl.Prog.dregion) : Zpl.Region.t =
  Array.map
    (fun (lo, hi) -> { Zpl.Region.lo = bound l s lo; hi = bound l s hi })
    dr

type spec = int * int

let spec c = (c.nf, c.l.nint)
let make_slots (nf, ni) = { f = Array.make nf 0.0; i = Array.make ni 0 }
