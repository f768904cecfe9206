(** Schedcheck: an independent static verifier for IRONMAN communication
    schedules.

    The optimizer's three transformations (rr, cc, pl) are exactly the
    ones most likely to break a schedule silently — a hoisted SR racing a
    later write, a "redundant" transfer removed across a kill, a DN that
    no longer dominates the fringe read it guards. The existing guards
    are {!Ir.Block.check_invariants} (structural, and trusted by the same
    pipeline it checks) and the bitwise oracle (dynamic, one input per
    run). Schedcheck closes the gap in the translation-validation style:
    it re-derives correctness of the {e final} {!Ir.Instr.program} from
    the instruction stream alone, using none of the optimizer's
    bookkeeping. It checks the program in the form the engine executes:
    {!Ir.Flat.flatten}'s op vector, so the jump threading and the
    placement of collective rounds relative to back edges sit inside the
    verified boundary.

    Five checkers run over one forward worklist fixpoint on the op CFG
    (fallthrough, [FJump], both arms of [FJumpIfNot]), plus one scan of
    the communication runs:

    - {b protocol} — on every path, each transfer's calls occur in
      DR ≤ SR ≤ DN ≤ SV order, exactly once per activation; no orphan,
      duplicate or path-dependent calls, and every activation completes.
    - {b race} — no kernel writes a member array of an in-flight
      transfer between its SR and SV (the message snapshot), and no
      kernel reads fringe cells of an (array, offset) whose transfer has
      issued DR but not yet DN (the incoming message may already be
      overwriting them).
    - {b availability} — every fringe read is covered: some transfer of
      the same (array, offset) was delivered (DN) on every path since
      the last write of that array. This is the removal-soundness check:
      a transfer deleted as redundant that the analysis cannot re-prove
      redundant leaves an uncovered read behind.
    - {b order} — within each rendezvous group (a maximal run of
      consecutive communication calls), calls follow the canonical SPMD
      deadlock-free order: for fringe transfers all DRs, then all SRs,
      then adjacent DN/SV pairs, each class sorted by transfer id; for
      synthesized collective rounds, one adjacent DR;SR;DN;SV quadruple
      per round in ascending transfer id, never interleaved with fringe
      calls — the same sequence on every processor.
    - {b collective} — every synthesized collective ({!Ir.Coll}) runs
      its full canonical round sequence between its [CollPart] and
      [CollFin] bookends, in order, on every path. The canonical
      sequence is re-derived from {!Ir.Coll.rounds} — independently of
      the synthesizer — so a dropped, duplicated, reordered or
      mis-tagged round cannot agree with it.

    Positions in diagnostics are the stable preorder instruction indices
    of {!Ir.Instr.size}, i.e. the [N:] lines of
    {!Ir.Printer.program_to_annotated_string} ([zplc dump --stage ir]),
    rendered as [ir#N]: each op is mapped back through the [src_of_op]
    of {!Ir.Flat.t}. Diagnostics about the end of the program or the
    transfer table sit one past the last structured position. *)

type checker = Protocol | Race | Availability | Order | Collective

val checker_name : checker -> string

type diag = {
  d_checker : checker;
  d_pos : int;  (** stable instruction index; one past the last for end-of-program diagnostics *)
  d_xfer : int option;  (** transfer id, when one is implicated *)
  d_msg : string;  (** includes the {!Ir.Transfer.describe} string *)
}

val diag_to_string : diag -> string

(** All diagnostics, sorted by position. [[]] means the schedule passed
    every checker. [p] is flattened and the op vector checked; a jump
    target starts a new rendezvous group for the order checker, since
    adjacency across a join is not an SPMD property.

    [~prune:true] (default [false]) first runs the {!Absint} scalar
    interval analysis of [p] and maps it onto the flat conditional
    jumps: a decided [If] takes its live arm only, a [Repeat] whose trip
    count is exactly 1 never loops back, and a [For] whose trip count is
    exactly 0 never enters its body. Ops the pruned CFG cannot reach are
    checked by no checker. The contract is {e precision-only}: pruning
    can only remove diagnostics, never add them — any schedule accepted
    unpruned is accepted pruned, so callers may enable it freely to
    avoid false positives in statically-dead code. *)
val check : ?prune:bool -> Ir.Instr.program -> diag list

(** The same checkers, unpruned, over an op vector given directly — for
    checking a vector edited after flattening. Positions still go
    through its [src_of_op]. *)
val check_flat : Ir.Flat.t -> diag list

(** [check_exn p] raises [Failure] with one rendered diagnostic per line
    if {!check} finds anything. *)
val check_exn : ?prune:bool -> Ir.Instr.program -> unit
