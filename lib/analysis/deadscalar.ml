(** Dead-scalar detection over the typed program, fed by the {!Absint}
    feasible-path walk: a scalar (or [-D]-overridable constant) is
    {e dead} when no feasible path ever reads it — reads inside branches
    the walk proves infeasible do not count.

    Soundness direction: reads are {e over}-approximated. The lint marks
    the reads of every statement {!Absint.live_body} reaches, and that
    walk is the one dead-branch elimination uses: loop bodies see every
    scalar they write as top, a [for] leaves its havocked state behind
    (covering the zero-trip run), and an undecided branch contributes
    the reads of both arms. A warning therefore means the value is
    provably never consumed, while a scalar that is read only under
    data-dependent conditions stays silent. *)

type warning = { w_loc : Zpl.Loc.t; w_msg : string }

let warning_to_string w =
  Zpl.Loc.format_error (Zpl.Loc.Src w.w_loc) w.w_msg

let run (p : Zpl.Prog.t) : warning list =
  let read = Array.make (Array.length p.Zpl.Prog.scalars) false in
  let mark v = read.(v) <- true in
  (* feasible [AssignS] sites, reversed, and the reached [for] variables *)
  let assigns = ref [] and for_vars = ref [] in
  let visit (s : Zpl.Prog.stmt) =
    List.iter mark (Zpl.Prog.stmt_reads s);
    match s with
    | Zpl.Prog.AssignS { lhs; loc; _ } -> assigns := (loc, lhs) :: !assigns
    | Zpl.Prog.For { var; _ } -> for_vars := var :: !for_vars
    | _ -> ()
  in
  ignore (Absint.live_body ~visit p);
  let warns = ref [] in
  let warn loc fmt = Fmt.kstr (fun m -> warns := { w_loc = loc; w_msg = m } :: !warns) fmt in
  List.iter
    (fun name ->
      warn Zpl.Loc.dummy "-D %s matches no constant declaration" name)
    p.Zpl.Prog.unknown_defines;
  Array.iter
    (fun (c : Zpl.Prog.const_info) ->
      if not c.Zpl.Prog.c_used then
        warn c.Zpl.Prog.c_loc "%sconstant %S is never read"
          (if c.Zpl.Prog.c_overridden then "-D-overridden " else "")
          c.Zpl.Prog.c_name)
    p.Zpl.Prog.consts;
  Array.iter
    (fun (s : Zpl.Prog.scalar_info) ->
      if
        (not read.(s.Zpl.Prog.s_id))
        && not (List.mem s.Zpl.Prog.s_id !for_vars)
      then
        warn s.Zpl.Prog.s_loc "scalar %S is never read on any feasible path"
          s.Zpl.Prog.s_name)
    p.Zpl.Prog.scalars;
  List.iter
    (fun (loc, lhs) ->
      if not read.(lhs) then
        warn loc "assignment to %S is never read on any feasible path"
          (Zpl.Prog.scalar_info p lhs).Zpl.Prog.s_name)
    (List.rev !assigns);
  List.rev !warns
