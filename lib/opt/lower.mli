(** Naive communication generation with message vectorization — the
    paper's baseline: one transfer per distinct (array, offset) required
    by each statement, placed immediately before the statement. *)

(** Lower a typed program to the optimizer's block form. *)
val lower : Zpl.Prog.t -> Ir.Block.code
