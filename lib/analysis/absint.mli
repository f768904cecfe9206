(** Scalar abstract interpretation: a constant/interval domain for the
    replicated scalars, run two ways. {!analyze} is the fixpoint
    analysis over the final IRONMAN IR, whose [ir#N] positions
    {!Commvol} and pruned {!Schedcheck} key on ({!Schedcheck} maps its
    decisions onto the flattened form through [src_of_op]).
    {!live_body} is the fixpoint-free feasible-path walk over the typed
    program, which dead-branch elimination ({!Opt.Passes.compile}) and
    the dead-scalar lint ({!Deadscalar}) share.

    The concrete semantics abstracted is {!Runtime.Values}' scalar code on the
    SPMD scalar environment: every processor evaluates scalar statements
    identically, so one abstract state covers them all. Both type each
    node by {!Zpl.Prog}'s one type rule, which the checker applies too. Both are
    {e sound}: for every concrete execution, every scalar's value at
    every program point lies inside the abstract interval at that point
    ([ReduceK]/[CollFin] results are data-dependent and go to top), and
    a branch decided [Some b] takes arm [b] on {e every} feasible
    execution. Neither is complete — undecided conditions and joined
    loop states lose precision — which is exactly the contract pruning
    and dead-branch elimination rely on: they may keep a dead branch,
    never drop a live one. *)

(** A closed interval [\[lo, hi\]] of scalar values (booleans embed as
    0/1). Invariant: every non-top interval excludes NaN; the top
    interval [\[-inf, +inf\]] covers every value {e including} NaN, and
    every abstract operation that could produce NaN returns top. *)
type ival = { lo : float; hi : float }

val top : ival

(** [mk lo hi] builds the interval, collapsing NaN endpoints to top. *)
val mk : float -> float -> ival

val point : float -> ival
val is_point : ival -> bool
val equal_ival : ival -> ival -> bool
val join : ival -> ival -> ival

(** [contains i v] — membership, with top containing NaN too. *)
val contains : ival -> float -> bool

(** Compact rendering: "4" for points, "[4,inf]" otherwise. *)
val string_of_ival : ival -> string

(** Standard interval widening: endpoints that moved jump to infinity. *)
val widen_ival : ival -> ival -> ival

val add : ival -> ival -> ival
val sub : ival -> ival -> ival
val mul : ival -> ival -> ival
val div : ival -> ival -> ival

(** [Some b] iff a 0/1 condition interval is provably [b]. *)
val decide_bool : ival -> bool option

(** Abstract counterpart of the scalar code {!Runtime.Values} compiles:
    sound for any concrete environment within [lookup]'s intervals.
    [scalars] gives each scalar's type, from which {!Zpl.Prog.sexpr_type}
    (the type rule the checker and the scalar compiler follow) types
    each node: int arithmetic whose interval leaves +-2^53 (where it
    could wrap at 63 bits, or its float endpoints round) goes to top. *)
val eval :
  scalars:(int -> Zpl.Ast.elem) -> (int -> ival) -> Zpl.Prog.sexpr -> ival

(** Abstract scalar environment, indexed by scalar id. Persistent:
    updates copy. *)
type state = ival array

val state_equal : state -> state -> bool
val state_join : state -> state -> state
val eval_state :
  scalars:(int -> Zpl.Ast.elem) -> state -> Zpl.Prog.sexpr -> ival

(** The exact initial state: every scalar at its type's zero (as
    {!Runtime.Values.make_slots} mints them); [-D] defines are already
    folded to literals by the front end. *)
val init_state : Zpl.Prog.t -> state

(** Trip-count interval of a counted loop from its bound intervals
    ([max 0 (hi - lo + 1)] for [step = +1], mirrored for [-1]). *)
val for_trips : step:int -> lo:ival -> hi:ival -> ival

(* ------------------------------------------------------------------ *)
(* Fixpoint analysis over the final IR                                 *)
(* ------------------------------------------------------------------ *)

(** The result of one {!analyze} run. Positions are the stable
    preorder indices of {!Ir.Instr.size} (the [zplc dump --stage ir]
    lines). *)
type summary = {
  s_decisions : (int, bool) Hashtbl.t;
      (** [If] position -> the arm every feasible execution takes *)
  s_trips : (int, ival) Hashtbl.t;
      (** [Repeat]/[For] position -> body-execution-count interval
          ([Repeat] bodies run at least once) *)
  s_hull : state;
      (** per-scalar hull over the initial value and every feasible
          write — the envelope concrete traces must stay inside *)
  s_exit : state;  (** abstract state at program exit *)
}

val decision : summary -> int -> bool option
val trips : summary -> int -> ival option

(** [analyze p] runs the interval analysis over [p.code] from the
    exact initial state. A decided [If] walks only its live arm and is
    recorded in [s_decisions]; a [Repeat] whose exit test holds after
    one pass runs once; other loops iterate to a widened fixpoint. *)
val analyze : Ir.Instr.program -> summary

(* ------------------------------------------------------------------ *)
(* Feasible-path walk                                                  *)
(* ------------------------------------------------------------------ *)

(** [live_body ?visit p] walks [p.body] once from the exact initial
    state, without a fixpoint: a loop body sees every scalar the loop
    writes (a [For] variable included) as top, and a [For] leaves that
    havocked state behind, which covers the zero-trip run. It returns
    the body with each decided [If] replaced by its live arm, and calls
    [visit] on every statement it reaches, in program order, before
    walking into it; the statements of a reached body or live arm get
    calls of their own. *)
val live_body :
  ?visit:(Zpl.Prog.stmt -> unit) -> Zpl.Prog.t -> Zpl.Prog.stmt list
