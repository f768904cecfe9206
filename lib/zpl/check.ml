(** Semantic analysis: resolves names, checks types and ranks, inlines
    no-argument procedure calls, folds constants, and produces a typed
    {!Prog.t}.

    The checker also enforces the properties the communication optimizer
    relies on: array shifts are static offset vectors, reductions appear
    only at the top of an assignment, control-flow conditions are
    replicated scalar expressions, and a static statement region obeys
    the statement-region rule ({!Prog.check_region}). *)

type entry =
  | KConst of Prog.sexpr  (** folded literal *)
  | KRegion of Region.t
  | KDirection of int array
  | KArray of int
  | KScalar of int
  | KIndexd of int  (** Index1/Index2/Index3, 0-based dimension *)

type env = {
  mutable table : (string * entry) list;
  mutable arrays : Prog.array_info list;  (** reversed *)
  mutable array_locs : Loc.t list;  (** declaration sites, reversed *)
  mutable scalars : Prog.scalar_info list;  (** reversed *)
  mutable consts : (string * Loc.t * bool ref) list;
      (** declared constants with a usage cell, reversed; folded values
          leave no trace in the program, so usage is recorded at lookup *)
  mutable ambient : Prog.dregion option;
      (** region of the nearest preceding explicit region prefix, mimicking
          ZPL's dynamic region scoping for straight-line code *)
  procs : (string, Ast.proc) Hashtbl.t;
  mutable inlining : string list;  (** call stack, for recursion detection *)
  mutable loop_vars : int list;
      (** variables of the enclosing [for] loops, which their bodies may
          not assign *)
}

let lookup env loc name =
  match List.assoc_opt name env.table with
  | Some e ->
      (match e with
      | KConst _ -> (
          match
            List.find_opt (fun (n, _, _) -> n = name) env.consts
          with
          | Some (_, _, used) -> used := true
          | None -> ())
      | _ -> ());
      e
  | None -> (
      match name with
      | "Index1" -> KIndexd 0
      | "Index2" -> KIndexd 1
      | "Index3" -> KIndexd 2
      | _ -> Loc.fail loc "unknown name %S" name)

let define env loc name entry =
  (match List.assoc_opt name env.table with
  | Some _ -> Loc.fail loc "duplicate definition of %S" name
  | None -> ());
  env.table <- (name, entry) :: env.table

let fresh_scalar env ~loc name ty =
  let id = List.length env.scalars in
  env.scalars <-
    { Prog.s_id = id; s_name = name; s_ty = ty; s_loc = loc } :: env.scalars;
  id

let fresh_array env loc name region =
  let rank = Region.rank region in
  if rank < 2 || rank > 3 then
    Loc.fail loc "array %S has rank %d; only rank 2 and 3 are supported" name
      rank;
  let id = List.length env.arrays in
  env.arrays <-
    { Prog.a_id = id; a_name = name; a_region = region; a_rank = rank }
    :: env.arrays;
  env.array_locs <- loc :: env.array_locs;
  id

(* ids count up from 0, and the lists hold them reversed *)
let array_of env aid = List.nth env.arrays (List.length env.arrays - 1 - aid)
let scalar_ty env id =
  (List.nth env.scalars (List.length env.scalars - 1 - id)).Prog.s_ty

(* ------------------------------------------------------------------ *)
(* Constant folding over scalar expressions                            *)
(* ------------------------------------------------------------------ *)

exception Wraps

let rec fold_sexpr ?(exact = false) (e : Prog.sexpr) : Prog.sexpr =
  let module P = Prog in
  let fold = fold_sexpr ~exact in
  let num_of = function
    | P.SInt i -> Some (float_of_int i)
    | P.SFloat f -> Some f
    | _ -> None
  in
  match e with
  | P.SArith (op, a, b) -> (
      let a = fold a and b = fold b in
      match (P.int_op op Ast.TInt Ast.TInt, a, b, num_of a, num_of b) with
      | Some r, P.SInt x, P.SInt y, _, _ ->
          if exact && Arith.int_wraps r x y then raise Wraps;
          P.SInt (Arith.int_arith r x y)
      | _, _, _, Some x, Some y -> P.SFloat (Arith.float_arith op x y)
      | _ -> P.SArith (op, a, b))
  | P.SCompare (op, a, b) -> (
      let a = fold a and b = fold b in
      match (num_of a, num_of b) with
      | Some x, Some y -> P.SBool (Arith.compare op x y)
      | _ -> P.SCompare (op, a, b))
  | P.SLogic (op, a, b) ->
      let a = fold a in
      P.SLogic (op, a, fold b)
  | P.SNeg a -> (
      match fold a with
      | P.SInt i when exact && i = min_int -> raise Wraps
      | P.SInt i -> P.SInt (-i)
      | P.SFloat f -> P.SFloat (-.f)
      | a -> P.SNeg a)
  | P.SNot a -> P.SNot (fold a)
  | P.SCall c -> P.SCall (Arith.map_call fold c)
  | e -> e

(** Fold a constant's value or a region bound: an int overflow there is
    a positioned error, not a wrapped value. *)
let fold_exact loc what e =
  try fold_sexpr ~exact:true e
  with Wraps -> Loc.fail loc "%s overflows the int range" what

(* ------------------------------------------------------------------ *)
(* Scalar expressions                                                  *)
(* ------------------------------------------------------------------ *)

(** Resolves a call of [f] against {!Arith.intrinsics}, then checks its
    arguments left to right with [arg]. *)
let check_call loc f args arg =
  match (List.assoc_opt f Arith.intrinsics, args) with
  | None, _ -> Loc.fail loc "unknown function %S" f
  | Some (Arith.Unary u), [ a ] -> Arith.Call1 (u, arg a)
  | Some (Arith.Binary b), [ x; y ] ->
      let x = arg x in
      Arith.Call2 (b, x, arg y)
  | Some i, _ ->
      Loc.fail loc "%s expects %d argument(s), got %d" f (Arith.arity i)
        (List.length args)

(** Checks a scalar expression; returns the typed expression and its
    type, by {!Prog}'s type rule. Int values coerce implicitly to float. *)
let rec check_sexpr env (e : Ast.expr) : Prog.sexpr * Ast.elem =
  let module P = Prog in
  match e.Ast.e with
  | Ast.EFloat f -> (P.SFloat f, Ast.TFloat)
  | Ast.EInt i -> (P.SInt i, Ast.TInt)
  | Ast.EBool b -> (P.SBool b, Ast.TBool)
  | Ast.EId name -> (
      match lookup env e.eloc name with
      | KConst lit -> (lit, P.sexpr_type (scalar_ty env) lit)
      | KScalar id -> (P.SVar id, scalar_ty env id)
      | KArray _ ->
          Loc.fail e.eloc "array %S used in a scalar context" name
      | KIndexd _ ->
          Loc.fail e.eloc "%S may only appear in an array expression" name
      | KRegion _ | KDirection _ ->
          Loc.fail e.eloc "%S is not a scalar value" name)
  | Ast.EAt (name, _) ->
      Loc.fail e.eloc "shifted reference %S@@... in a scalar context" name
  | Ast.EBin (op, a, b) -> (
      let ta, tya = check_sexpr env a in
      let tb, tyb = check_sexpr env b in
      let numeric () =
        if tya = Ast.TBool || tyb = Ast.TBool then
          Loc.fail e.eloc "boolean operand in arithmetic"
      in
      match Arith.classify op with
      | Arith.Arith o ->
          numeric ();
          (P.SArith (o, ta, tb), P.arith_type o tya tyb)
      | Arith.Compare o ->
          numeric ();
          (P.SCompare (o, ta, tb), Ast.TBool)
      | Arith.Logic o ->
          if tya <> Ast.TBool || tyb <> Ast.TBool then
            Loc.fail e.eloc "'%s' expects boolean operands" (Ast.binop_name op);
          (P.SLogic (o, ta, tb), Ast.TBool))
  | Ast.EUn (Ast.Neg, a) ->
      let ta, ty = check_sexpr env a in
      if ty = Ast.TBool then Loc.fail e.eloc "cannot negate a boolean";
      (P.SNeg ta, ty)
  | Ast.EUn (Ast.Not, a) ->
      let ta, ty = check_sexpr env a in
      if ty <> Ast.TBool then Loc.fail e.eloc "'not' expects a boolean";
      (P.SNot ta, Ast.TBool)
  | Ast.ECall (f, args) ->
      let arg a =
        let ta, ty = check_sexpr env a in
        if ty = Ast.TBool then Loc.fail a.Ast.eloc "boolean argument to %S" f;
        ta
      in
      (P.SCall (check_call e.eloc f args arg), Ast.TFloat)
  | Ast.EReduce _ ->
      Loc.fail e.eloc
        "reductions are only allowed at the top of an assignment"

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)
(* ------------------------------------------------------------------ *)

(** A statement-region bound: restricted to the affine form [var + const]. *)
let check_bound env (e : Ast.expr) : Prog.bound =
  let te, ty = check_sexpr env e in
  if ty <> Ast.TInt then Loc.fail e.Ast.eloc "region bounds must be integers";
  match fold_exact e.Ast.eloc "region bound" te with
  | Prog.SInt i -> { Prog.base = i; bvar = None }
  | Prog.SVar v -> { Prog.base = 0; bvar = Some v }
  | Prog.SArith (`Add, Prog.SVar v, Prog.SInt c)
  | Prog.SArith (`Add, Prog.SInt c, Prog.SVar v) ->
      { Prog.base = c; bvar = Some v }
  | Prog.SArith (`Sub, Prog.SVar _, Prog.SInt c) when c = min_int ->
      Loc.fail e.Ast.eloc "region bound overflows the int range"
  | Prog.SArith (`Sub, Prog.SVar v, Prog.SInt c) ->
      { Prog.base = -c; bvar = Some v }
  | _ ->
      Loc.fail e.Ast.eloc
        "region bounds must have the form <const>, <var>, or <var> +/- <const>"

(** A region's checked bounds. A static region whose extent or cell
    count leaves the int range is an error at [loc]. *)
let check_ranges env loc ranges : Prog.dregion =
  let bounds (lo, hi) = (check_bound env lo, check_bound env hi) in
  let dr = Array.of_list (List.map bounds ranges) in
  match Prog.static_region dr with
  | Some r when not (Region.fits r) ->
      Loc.fail loc
        "region %s: an extent or the cell count overflows the int range"
        (Region.to_string r)
  | _ -> dr

let check_region_ref env (r : Ast.region_ref) : Prog.dregion =
  match r with
  | Ast.RName (name, loc) -> (
      match lookup env loc name with
      | KRegion reg -> Prog.dregion_of_region reg
      | _ -> Loc.fail loc "%S is not a region" name)
  | Ast.RLit (ranges, loc) ->
      if ranges = [] then Loc.fail loc "empty region literal";
      check_ranges env loc ranges

(** Region declarations must be fully static. *)
let check_static_region env (ranges : (Ast.expr * Ast.expr) list) loc : Region.t =
  match Prog.static_region (check_ranges env loc ranges) with
  | Some r -> r
  | None -> Loc.fail loc "declared regions may not reference variables"

(* ------------------------------------------------------------------ *)
(* Array expressions                                                   *)
(* ------------------------------------------------------------------ *)

let offset_of env loc aid (at : Ast.at_arg) : int array =
  let rank = (array_of env aid).Prog.a_rank in
  let off =
    match at with
    | Ast.AtName d -> (
        match lookup env loc d with
        | KDirection off -> off
        | _ -> Loc.fail loc "%S is not a direction" d)
    | Ast.AtLit l -> Array.of_list l
  in
  if Array.length off <> rank then
    Loc.fail loc "direction of rank %d applied to array of rank %d"
      (Array.length off) rank;
  off

(** Checks an expression in array context: scalars broadcast, arrays may be
    shifted. Returns the typed per-cell expression; the expression may read
    no array at all (a pure broadcast fill). *)
let rec check_aexpr env (e : Ast.expr) : Prog.aexpr =
  let module P = Prog in
  match e.Ast.e with
  | Ast.EFloat f -> P.AConst f
  | Ast.EInt i -> P.AConst (float_of_int i)
  | Ast.EBool _ -> Loc.fail e.eloc "boolean value in an array expression"
  | Ast.EId name -> (
      match lookup env e.eloc name with
      | KArray aid ->
          P.ARef (aid, Array.make (array_of env aid).P.a_rank 0)
      | KScalar id ->
          if scalar_ty env id = Ast.TBool then
            Loc.fail e.eloc "boolean scalar %S in an array expression" name;
          P.AScalar id
      | KConst (P.SInt i) -> P.AConst (float_of_int i)
      | KConst (P.SFloat f) -> P.AConst f
      | KConst _ -> Loc.fail e.eloc "boolean constant in an array expression"
      | KIndexd d -> P.AIndex d
      | KRegion _ | KDirection _ ->
          Loc.fail e.eloc "%S is not a value" name)
  | Ast.EAt (name, at) -> (
      match lookup env e.eloc name with
      | KArray aid -> P.ARef (aid, offset_of env e.eloc aid at)
      | _ -> Loc.fail e.eloc "'@' applied to %S, which is not an array" name)
  | Ast.EBin (op, a, b) -> (
      match Arith.classify op with
      | Arith.Arith op -> P.AArith (op, check_aexpr env a, check_aexpr env b)
      | Arith.Compare _ | Arith.Logic _ ->
          Loc.fail e.eloc "comparisons are not supported in array expressions")
  | Ast.EUn (Ast.Not, _) ->
      Loc.fail e.eloc "'not' is not supported in array expressions"
  | Ast.EUn (Ast.Neg, a) -> P.ANeg (check_aexpr env a)
  | Ast.ECall (f, args) -> P.ACall (check_call e.eloc f args (check_aexpr env))
  | Ast.EReduce _ ->
      Loc.fail e.eloc
        "reductions are only allowed at the top of an assignment"

(** Check what a statement over [region] reads: every array read has
    the region's rank and every [IndexD] has D <= that rank, whether or
    not the region is static. *)
let check_reads env loc (region : Prog.dregion) (e : Prog.aexpr) =
  let rank = Array.length region in
  Prog.fold_aleaves
    (fun () -> function
      | Prog.AIndex d when d >= rank ->
          Loc.fail loc "Index%d used over a statement region of rank %d"
            (d + 1) rank
      | Prog.ARef (aid, _) ->
          let a = array_of env aid in
          if rank <> a.Prog.a_rank then
            Loc.fail loc
              "statement region has rank %d but array %S has rank %d" rank
              a.Prog.a_name a.Prog.a_rank
      | _ -> ())
    () e

(** The statement-region rule ({!Prog.check_region}) over [s]'s region,
    when it is static; the executors check a loop-variant one. *)
let check_static env over s =
  Option.iter
    (fun r ->
      let arrays = Array.of_list (List.rev env.arrays) in
      Prog.check_region arrays (Prog.index_space arrays) over s (Region.bounds r))
    (Prog.static_region (Prog.over_region over s))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let resolve_region env loc (r : Ast.region_ref option) : Prog.dregion =
  match r with
  | Some r ->
      let dr = check_region_ref env r in
      env.ambient <- Some dr;
      dr
  | None -> (
      match env.ambient with
      | Some dr -> dr
      | None ->
          Loc.fail loc
            "no region in scope: prefix the statement with [R] or [lo..hi, ...]")

let rec check_stmts env (stmts : Ast.stmt list) : Prog.stmt list =
  List.concat_map (check_stmt env) stmts

and check_stmt env (s : Ast.stmt) : Prog.stmt list =
  let module P = Prog in
  match s.Ast.s with
  | Ast.SAssign (rref, name, rhs) -> (
      match (lookup env s.sloc name, rhs.Ast.e) with
      | KScalar id, _ when List.mem id env.loop_vars ->
          Loc.fail s.sloc
            "loop variable %S cannot be assigned inside its own 'for' body"
            name
      | KScalar id, Ast.EReduce (op, body) ->
          if scalar_ty env id <> Ast.TFloat then
            Loc.fail s.sloc "reduction target %S must be a float scalar" name;
          let region = resolve_region env s.sloc rref in
          let rank = Array.length region in
          if rank < 2 || rank > 3 then
            Loc.fail s.sloc
              "reduction region has rank %d; only rank 2 and 3 are supported"
              rank;
          (* a statically empty region makes the reduction return the
             operator's identity (neg_infinity for max<<, infinity for
             min<<) without touching a single cell — almost certainly a
             bounds mistake or a degenerate [constant] override, so
             reject it here with the source location. Regions that only
             become empty at run time (loop-variant bounds) still yield
             the identity; see [Runtime.Reduce.identity]. *)
          (match P.static_region region with
          | Some r when Region.is_empty r ->
              Loc.fail s.sloc
                "%s reduces over statically empty region %s (it would \
                 yield only the operator's identity); check the bounds or \
                 the constant overrides"
                (Ast.redop_name op) (Region.to_string r)
          | _ -> ());
          let te = check_aexpr env body in
          check_reads env s.sloc region te;
          let r =
            { P.r_lhs = id; r_op = op; r_region = region; r_rhs = te;
              r_flops = P.flops_of_aexpr te + 1; r_loc = s.sloc }
          in
          check_static env P.Reduce r;
          [ P.ReduceS r ]
      | KScalar id, _ ->
          (match rref with
          | Some r -> env.ambient <- Some (check_region_ref env r)
          | None -> ());
          let te, ty = check_sexpr env rhs in
          let lty = scalar_ty env id in
          if ty <> lty && not (lty = Ast.TFloat && ty = Ast.TInt) then
            Loc.fail s.sloc "type mismatch assigning to scalar %S" name;
          [ P.AssignS { lhs = id; rhs = fold_sexpr te; loc = s.sloc } ]
      | KArray _, Ast.EReduce _ ->
          Loc.fail s.sloc "reduction target %S must be a scalar, not an array"
            name
      | KArray aid, _ ->
          let region = resolve_region env s.sloc rref in
          let a = array_of env aid in
          if Array.length region <> a.P.a_rank then
            Loc.fail s.sloc "region of rank %d assigned to array of rank %d"
              (Array.length region) a.P.a_rank;
          let te = check_aexpr env rhs in
          check_reads env s.sloc region te;
          let a =
            { P.region; lhs = aid; rhs = te; flops = P.flops_of_aexpr te + 1;
              loc = s.sloc }
          in
          check_static env P.Assign a;
          [ P.AssignA a ]
      | _ -> Loc.fail s.sloc "%S is not assignable" name)
  | Ast.SRepeat (body, cond) ->
      let tbody = check_stmts env body in
      let tc, ty = check_sexpr env cond in
      if ty <> Ast.TBool then
        Loc.fail s.sloc "'until' condition must be boolean";
      [ P.Repeat (tbody, fold_sexpr tc) ]
  | Ast.SFor (v, dir, lo, hi, body) ->
      let tlo, tylo = check_sexpr env lo in
      let thi, tyhi = check_sexpr env hi in
      if tylo <> Ast.TInt || tyhi <> Ast.TInt then
        Loc.fail s.sloc "'for' bounds must be integers";
      let id = fresh_scalar env ~loc:s.sloc v Ast.TInt in
      let saved = env.table in
      env.table <- (v, KScalar id) :: env.table;
      env.loop_vars <- id :: env.loop_vars;
      let tbody = check_stmts env body in
      env.loop_vars <- List.tl env.loop_vars;
      env.table <- saved;
      let step = match dir with Ast.Upto -> 1 | Ast.Downto -> -1 in
      let loop hi =
        P.For { var = id; lo = fold_sexpr tlo; hi; step; body = tbody }
      in
      (* Both bounds are evaluated once, at loop entry. The flattened
         loop re-reads [hi] at every head test, so a bound the body can
         change is hoisted into a fresh scalar assigned just before the
         loop. *)
      let thi = fold_sexpr thi in
      let writes = P.scalar_writes tbody in
      if List.exists (fun v -> List.mem v writes) (P.sexpr_reads thi) then begin
        let h = fresh_scalar env ~loc:s.sloc (v ^ ".hi") Ast.TInt in
        [ P.AssignS { lhs = h; rhs = thi; loc = s.sloc }; loop (P.SVar h) ]
      end
      else [ loop thi ]
  | Ast.SIf (cond, then_, else_) ->
      let tc, ty = check_sexpr env cond in
      if ty <> Ast.TBool then Loc.fail s.sloc "'if' condition must be boolean";
      let tthen = check_stmts env then_ in
      let telse = check_stmts env else_ in
      [ P.If (fold_sexpr tc, tthen, telse) ]
  | Ast.SCall name -> (
      match Hashtbl.find_opt env.procs name with
      | None -> Loc.fail s.sloc "unknown procedure %S" name
      | Some proc ->
          if List.mem name env.inlining then
            Loc.fail s.sloc "recursive procedure %S cannot be inlined" name;
          env.inlining <- name :: env.inlining;
          let body = check_stmts env proc.Ast.p_body in
          env.inlining <- List.tl env.inlining;
          body)

(* ------------------------------------------------------------------ *)
(* Declarations and entry point                                        *)
(* ------------------------------------------------------------------ *)

let check_decl env (d : Ast.decl) =
  match d with
  | Ast.DRegion (name, ranges, loc) ->
      define env loc name (KRegion (check_static_region env ranges loc))
  | Ast.DDirection (name, offs, loc) ->
      if offs = [] then Loc.fail loc "empty direction";
      define env loc name (KDirection (Array.of_list offs))
  | Ast.DConstant (name, e, loc) -> (
      if List.mem_assoc name env.table then
        Loc.fail loc "duplicate definition of %S" name;
      let te, _ = check_sexpr env e in
      match fold_exact loc (Printf.sprintf "constant %S" name) te with
      | (Prog.SInt _ | Prog.SFloat _ | Prog.SBool _) as lit ->
          env.consts <- (name, loc, ref false) :: env.consts;
          define env loc name (KConst lit)
      | _ -> Loc.fail loc "constant %S is not a compile-time value" name)
  | Ast.DVarArray (names, rref, elem, loc) ->
      if elem <> Ast.TFloat then
        Loc.fail loc "arrays must have element type float";
      let dr = check_region_ref env rref in
      let region =
        match Prog.static_region dr with
        | Some r -> r
        | None -> Loc.fail loc "array extents must be static"
      in
      List.iter
        (fun n -> define env loc n (KArray (fresh_array env loc n region)))
        names
  | Ast.DVarScalar (names, elem, loc) ->
      List.iter
        (fun n -> define env loc n (KScalar (fresh_scalar env ~loc n elem)))
        names

(** [p], unless an array's declared region, grown in dimensions 0 and 1
    by its fringe width ({!Prog.fringe_widths}: what each processor
    allocates around its block), leaves the int range: an error at the
    array's declaration. *)
let check_fringes env (p : Prog.t) =
  let locs = Array.of_list (List.rev env.array_locs) in
  Array.iteri
    (fun aid w ->
      let a = p.Prog.arrays.(aid) in
      let shift s =
        Region.shift a.a_region
          (Array.init a.a_rank (fun d -> if d < 2 then s * w else 0))
      in
      match
        Region.is_empty a.a_region
        || Region.fits (Region.hull (shift (-1)) (shift 1))
      with
      | true -> ()
      | false | (exception Invalid_argument _) ->
          Loc.fail locs.(aid)
            "array %S: its region %s grown by its fringe of %d leaves the \
             int range"
            a.a_name (Region.to_string a.a_region) w)
    (Prog.fringe_widths p);
  p

(** [check ?defines ?entry program] type-checks [program]. [defines]
    overrides same-named [constant] declarations (used to rescale problem
    sizes without editing sources). [entry] selects the entry procedure
    (default: ["main"] if present, else the last procedure). *)
let check ?(defines : (string * float) list = []) ?entry ?(source_lines = 0)
    (prog : Ast.program) : Prog.t =
  let env =
    { table = []; arrays = []; array_locs = []; scalars = []; consts = [];
      ambient = None;
      procs = Hashtbl.create 8; inlining = []; loop_vars = [] }
  in
  List.iter (fun p -> Hashtbl.replace env.procs p.Ast.p_name p) prog.Ast.procs;
  let apply_define (d : Ast.decl) =
    match d with
    | Ast.DConstant (name, _, loc) -> (
        match List.assoc_opt name defines with
        | Some v ->
            (* an integral define outside the int range would wrap *)
            if Float.is_integer v && not (v >= -0x1p62 && v < 0x1p62) then
              Loc.fail loc "define %s=%g is an integer outside the int range"
                name v;
            let lit =
              if Float.is_integer v then Prog.SInt (int_of_float v)
              else Prog.SFloat v
            in
            Ast.DConstant
              ( name,
                { Ast.e =
                    (match lit with
                    | Prog.SInt i -> Ast.EInt i
                    | _ -> Ast.EFloat v);
                  eloc = loc },
                loc )
        | None -> d)
    | d -> d
  in
  List.iter (fun d -> check_decl env (apply_define d)) prog.Ast.decls;
  let entry_proc =
    match entry with
    | Some name -> (
        match Hashtbl.find_opt env.procs name with
        | Some p -> p
        | None -> Loc.fail Loc.dummy "no procedure named %S" name)
    | None -> (
        match Hashtbl.find_opt env.procs "main" with
        | Some p -> p
        | None -> (
            match List.rev prog.Ast.procs with
            | p :: _ -> p
            | [] -> Loc.fail Loc.dummy "program has no procedures"))
  in
  env.inlining <- [ entry_proc.Ast.p_name ];
  let body = check_stmts env entry_proc.Ast.p_body in
  let const_names = List.map (fun (n, _, _) -> n) env.consts in
  check_fringes env {
    Prog.name = entry_proc.Ast.p_name;
    arrays = Array.of_list (List.rev env.arrays);
    scalars = Array.of_list (List.rev env.scalars);
    consts =
      Array.of_list
        (List.rev_map
           (fun (name, loc, used) ->
             { Prog.c_name = name;
               c_loc = loc;
               c_used = !used;
               c_overridden = List.mem_assoc name defines })
           env.consts);
    unknown_defines =
      List.filter_map
        (fun (name, _) ->
          if List.mem name const_names then None else Some name)
        defines;
    body;
    source_lines;
  }

(** Convenience: parse + check a source string. *)
let compile_string ?defines ?entry (src : string) : Prog.t =
  let lines = List.length (String.split_on_char '\n' src) in
  check ?defines ?entry ~source_lines:lines (Parser.parse_program src)
