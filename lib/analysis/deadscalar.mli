(** Dead-scalar lint over the typed program: scalars, [-D] defines and
    scalar assignments the {!Absint.live_body} walk proves are never
    read on any feasible path, plus [-D] names matching no [constant]
    declaration. Reads are over-approximated (the lint marks the reads
    of every statement the walk dead-branch elimination uses reaches:
    loop bodies under havocked states, a [for] leaving its havocked
    state behind, both arms of an undecided branch), so every warning
    is a proof of deadness, not a heuristic. Warnings —
    they never fail a build; [zplc lint] prints them. *)

type warning = { w_loc : Zpl.Loc.t; w_msg : string }

(** "<line>:<col>: <message>" via {!Zpl.Loc.format_error}; [-D]
    mismatches carry {!Zpl.Loc.dummy} ([0:0]). *)
val warning_to_string : warning -> string

(** Declaration-order warnings: unknown [-D] names, never-read
    constants, never-read scalars ([For] loop variables exempt), then
    feasible assignments whose target is never read. *)
val run : Zpl.Prog.t -> warning list
