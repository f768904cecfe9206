(** Static communication counts — "the number of communications in the
    text of the SPMD program" (paper Section 3.3.1). One communication =
    one transfer site; combined transfers count once. *)

(** The paper's static communication count. *)
val static_count : Instr.program -> int

(** Member messages if no combining had happened — a volume proxy that
    combining must preserve. *)
val static_member_count : Instr.program -> int
