(** A forward dataflow framework over the final IRONMAN IR
    ({!Ir.Instr.instr} lists): abstract states flow through straight-line
    code, meet over the arms of [If], and reach a fixpoint over the
    bodies of [Repeat] and [For]. Positions handed to the client are the
    stable preorder indices of {!Ir.Instr.size} — the same numbering
    [zplc dump --stage ir] prints — so results keyed by position point at
    concrete dump lines.

    Its one client is the {!Absint} interval analysis. The framework is
    independent of the optimizer's own bookkeeping ({!Ir.Block}): it
    sees only the emitted instruction stream. {!Schedcheck} does not run
    on it; it checks the flattened form the engine executes. *)

type 'a ops = {
  equal : 'a -> 'a -> bool;
  meet : 'a -> 'a -> 'a;
      (** greatest lower bound: combines the two arms of an [If] and the
          loop entry with the loop back edge. Must be conservative —
          anything true of the meet must be true of both inputs. *)
  transfer : final:bool -> pos:int -> Ir.Instr.instr -> 'a -> 'a;
      (** the abstract effect of one {e atomic} instruction ([Comm],
          [Kernel], [ScalarK], [ReduceK] — structured instructions are
          handled by the framework). [final] is [false] during fixpoint
          iterations and [true] on the single stable replay of each
          instruction: clients that collect diagnostics should emit them
          only when [final], which guarantees exactly one report per
          program point. *)
}

(** Where a [branch] hook is consulted: the condition of an [If], or the
    [until] condition of a [Repeat] evaluated on the state {e after} the
    body. *)
type branch_kind = [ `If | `Until ]

(** [run ops ~init code] propagates [init] through [code] and returns
    the state at the exit. [Repeat] bodies execute at least once; [For]
    bodies may execute zero times (the exit state meets the entry).
    Raises [Failure] if a loop fixpoint fails to stabilize within an
    internal iteration bound — impossible for finite-height lattices
    (infinite-height clients must pass [widen]).

    The optional hooks leave the [ops] record — and every existing
    client — untouched:

    - [widen ~iter old merged] replaces the loop-entry meet on fixpoint
      round [iter]; an interval client returns [merged] for small [iter]
      and jumps unstable bounds to infinity afterwards, forcing
      convergence.
    - [branch ~final ~pos kind cond st] may decide a conditional from
      the abstract state [st] {e before} an [If] (or {e after} a
      [Repeat] body for [`Until]). [Some true]/[Some false] on an [`If]
      walks only that arm — the dead arm is never shown to [transfer].
      [Some true] on [`Until] after the first body pass pins the loop to
      exactly one iteration. The hook is also invoked once with the
      final stable state (with [final] inherited from the walk) so
      summary-building clients can record the decision.
    - [enter_for ~final ~pos ~var ~lo ~hi ~step pre] produces the body
      entry state (e.g. binding [var] to the hull of the iteration
      space); [exit_for ... ~pre out] produces the loop exit state from
      the original pre-state and the stable body output (default:
      [meet pre out], the zero-trip-safe join). *)
val run :
  ?widen:(iter:int -> 'a -> 'a -> 'a) ->
  ?branch:
    (final:bool -> pos:int -> branch_kind -> Zpl.Prog.sexpr -> 'a -> bool option) ->
  ?enter_for:
    (final:bool ->
    pos:int ->
    var:int ->
    lo:Zpl.Prog.sexpr ->
    hi:Zpl.Prog.sexpr ->
    step:int ->
    'a ->
    'a) ->
  ?exit_for:
    (final:bool ->
    pos:int ->
    var:int ->
    lo:Zpl.Prog.sexpr ->
    hi:Zpl.Prog.sexpr ->
    step:int ->
    pre:'a ->
    'a ->
    'a) ->
  'a ops ->
  init:'a ->
  Ir.Instr.instr list ->
  'a
