(** Semantic analysis: resolves names, checks types and ranks, inlines
    no-argument procedure calls, folds constants, and produces a typed
    {!Prog.t}. Raises {!Loc.Error} on malformed programs.

    The checker enforces the properties the communication optimizer relies
    on: array shifts are static offset vectors, reductions appear only at
    the top of an assignment, control-flow conditions are replicated
    scalar expressions, and every shifted reference stays inside the
    referenced array's declared region (when the statement region is
    static; loop-variant regions are validated at run time). *)

(** Raised by [fold_sexpr ~exact:true] on int arithmetic that wraps. *)
exception Wraps

(** Constant-fold a scalar expression with the run-time semantics
    ({!Arith}), under which int arithmetic wraps. [exact] (default
    [false]) raises {!Wraps} instead: constants and region bounds fold
    that way, and the checker reports a wrap there as a positioned
    error. *)
val fold_sexpr : ?exact:bool -> Prog.sexpr -> Prog.sexpr

(** [check ?defines ?entry ?source_lines program] type-checks a parsed
    program. [defines] overrides same-named [constant] declarations (used
    to rescale problem sizes without editing sources). [entry] selects the
    entry procedure (default ["main"] if present, else the last
    procedure). *)
val check :
  ?defines:(string * float) list ->
  ?entry:string ->
  ?source_lines:int ->
  Ast.program ->
  Prog.t

(** Parse and check a source string. *)
val compile_string :
  ?defines:(string * float) list -> ?entry:string -> string -> Prog.t
