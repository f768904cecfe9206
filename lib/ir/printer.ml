(** Textual dumps of the communication IR, in the pseudo-code style of the
    paper's Figure 1: the structured program ([zplc dump --stage ir]) and
    the flat one ([--stage flat]). Both name every communication call's
    transfer with {!Transfer.describe}, the [xN:] id that schedcheck
    diagnostics and engine deadlock messages use. *)

(** One-line rendering of a collective bookend: the reduction statement
    it implements, tagged with its slot and algorithm. *)
let coll_work_str (prog : Zpl.Prog.t) which (w : Instr.coll_work) =
  Printf.sprintf "%s[s%d/%s] %s" which w.Instr.cw_slot
    (Coll.alg_name w.Instr.cw_alg)
    (String.concat " "
       (List.map String.trim
          (Zpl.Pretty.stmt_lines prog ~indent:0 (Zpl.Prog.ReduceS w.Instr.cw_red))))

(** The structured dump: every instruction line is prefixed with its
    stable preorder index (the {!Instr.size} numbering) and
    communication calls carry the {!Transfer.describe} string — so an
    [ir#N] position in a schedcheck diagnostic is exactly the [N:] line
    of this dump, and the named transfer is identifiable on it.
    Continuation lines ([until]/[else]/[end]) carry no index: they
    belong to the structured instruction whose header is numbered. *)
let annotated_lines (p : Instr.program) : string list =
  let idx k = Printf.sprintf "%4d: " k in
  let blank = String.make 6 ' ' in
  let prefix_first k = function
    | [] -> []
    | l :: rest -> (idx k ^ l) :: List.map (fun l -> blank ^ l) rest
  in
  let prog = p.Instr.prog in
  let rec go ~indent k (i : Instr.instr) : string list =
    let pad = String.make indent ' ' in
    match i with
    | Instr.Comm (c, x) ->
        [ idx k
          ^ Printf.sprintf "%s%s(%s);" pad (Instr.call_name c)
              (Transfer.describe prog p.Instr.transfers.(x)) ]
    | Instr.Kernel a ->
        prefix_first k (Zpl.Pretty.stmt_lines prog ~indent (Zpl.Prog.AssignA a))
    | Instr.ScalarK { lhs; rhs } ->
        prefix_first k
          (Zpl.Pretty.stmt_lines prog ~indent (Zpl.Prog.AssignS { lhs; rhs; loc = Zpl.Loc.dummy }))
    | Instr.ReduceK r ->
        prefix_first k (Zpl.Pretty.stmt_lines prog ~indent (Zpl.Prog.ReduceS r))
    | Instr.CollPart w -> [ idx k ^ pad ^ coll_work_str prog "partial" w ]
    | Instr.CollFin w -> [ idx k ^ pad ^ coll_work_str prog "finish" w ]
    | Instr.Repeat (body, cond) ->
        ((idx k ^ pad ^ "repeat") :: go_list ~indent:(indent + 2) (k + 1) body)
        @ [ blank
            ^ Printf.sprintf "%suntil %s;" pad
                (Zpl.Pretty.sexpr_to_string prog cond) ]
    | Instr.For { var; lo; hi; step; body } ->
        ((idx k
          ^ Printf.sprintf "%sfor %s := %s %s %s do" pad
              (Zpl.Prog.scalar_info prog var).s_name
              (Zpl.Pretty.sexpr_to_string prog lo)
              (if step >= 0 then "to" else "downto")
              (Zpl.Pretty.sexpr_to_string prog hi))
        :: go_list ~indent:(indent + 2) (k + 1) body)
        @ [ blank ^ pad ^ "end;" ]
    | Instr.If (cond, a, b) ->
        ((idx k
          ^ Printf.sprintf "%sif %s then" pad
              (Zpl.Pretty.sexpr_to_string prog cond))
        :: go_list ~indent:(indent + 2) (k + 1) a)
        @ (if b = [] then []
           else
             (blank ^ pad ^ "else")
             :: go_list ~indent:(indent + 2) (k + 1 + Instr.size_list a) b)
        @ [ blank ^ pad ^ "end;" ]
  and go_list ~indent k = function
    | [] -> []
    | i :: rest -> go ~indent k i @ go_list ~indent (k + Instr.size i) rest
  in
  go_list ~indent:0 0 p.Instr.code

let program_to_annotated_string (p : Instr.program) =
  String.concat "\n" (annotated_lines p)

let flat_to_string (f : Flat.t) =
  let prog = f.Flat.prog in
  let line i op =
    let body =
      match op with
      | Flat.FComm (c, x) ->
          Printf.sprintf "%s(%s)" (Instr.call_name c)
            (Transfer.describe prog f.Flat.transfers.(x))
      | Flat.FKernel a ->
          String.concat " "
            (List.map String.trim
               (Zpl.Pretty.stmt_lines prog ~indent:0 (Zpl.Prog.AssignA a)))
      | Flat.FScalar { lhs; rhs } ->
          Printf.sprintf "%s := %s" (Zpl.Prog.scalar_info prog lhs).s_name
            (Zpl.Pretty.sexpr_to_string prog rhs)
      | Flat.FReduce r ->
          String.concat " "
            (List.map String.trim
               (Zpl.Pretty.stmt_lines prog ~indent:0 (Zpl.Prog.ReduceS r)))
      | Flat.FCollPart w -> coll_work_str prog "partial" w
      | Flat.FCollFin w -> coll_work_str prog "finish" w
      | Flat.FJump t -> Printf.sprintf "jump %d" t
      | Flat.FJumpIfNot (c, t) ->
          Printf.sprintf "unless %s jump %d" (Zpl.Pretty.sexpr_to_string prog c) t
      | Flat.FHalt -> "halt"
    in
    Printf.sprintf "%4d: %s" i body
  in
  f.Flat.ops |> Array.to_list |> List.mapi line |> String.concat "\n"
