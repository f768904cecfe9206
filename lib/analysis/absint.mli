(** Scalar abstract interpretation over the final IRONMAN IR: a
    constant/interval domain for the replicated scalars, run forward
    through {!Dataflow} (structured form) and a worklist over
    {!Ir.Flat.t} (jump-threaded form).

    The concrete semantics abstracted is {!Runtime.Values.eval_env} on the
    SPMD scalar environment: every processor evaluates scalar statements
    identically, so one abstract state covers them all. The analysis is
    {e sound}: for every concrete execution, every scalar's value at
    every program point lies inside the abstract interval at that point
    ([ReduceK]/[CollFin] results are data-dependent and go to top), and
    a branch decided [Some b] takes arm [b] on {e every} feasible
    execution. It is {e not} complete — undecided conditions and joined
    loop states lose precision — which is exactly the contract
    {!Schedcheck} pruning and {!Opt.Deadbranch} rely on: pruning may
    keep a dead branch, never drop a live one. *)

(** A closed interval [\[lo, hi\]] of scalar values (booleans embed as
    0/1). Invariant: every non-top interval excludes NaN; the top
    interval [\[-inf, +inf\]] covers every value {e including} NaN, and
    every abstract operation that could produce NaN returns top. *)
type ival = { lo : float; hi : float }

val top : ival
val is_top : ival -> bool

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

(** Abstract counterpart of {!Runtime.Values.eval_env}: sound for any
    concrete environment within [lookup]'s intervals. *)
val eval : (int -> ival) -> Zpl.Prog.sexpr -> ival

(** Abstract scalar environment, indexed by scalar id. Persistent:
    updates copy. *)
type state = ival array

val state_equal : state -> state -> bool
val state_join : state -> state -> state
val eval_state : state -> Zpl.Prog.sexpr -> ival

(** The exact initial state: every scalar at its type's zero
    ({!Runtime.Values.default_of}); [-D] defines are already folded to
    literals by the front end. *)
val init_state : Zpl.Prog.t -> state

(** Scalar ids written anywhere in an instruction list, loop variables
    of nested [For]s included. *)
val writes_of : Ir.Instr.instr list -> int list

(** Trip-count interval of a counted loop from its bound intervals
    ([max 0 (hi - lo + 1)] for [step = +1], mirrored for [-1]). *)
val for_trips : step:int -> lo:ival -> hi:ival -> ival

(* ------------------------------------------------------------------ *)
(* Structured analysis                                                 *)
(* ------------------------------------------------------------------ *)

(** The result of one structured analysis run. Positions are the stable
    preorder indices of {!Ir.Instr.size} (the [zplc dump --ir] lines). *)
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

(** [analyze ?prune p] runs the interval analysis over [p.code] from the
    exact initial state. With [prune] (default), decided [If]s
    contribute only their live arm to the analysis (and are recorded in
    [s_decisions]); with [~prune:false] both arms always join, matching
    what an unpruned checker walks. Decisions and trip counts are
    recorded either way. *)
val analyze : ?prune:bool -> Ir.Instr.program -> summary

(* ------------------------------------------------------------------ *)
(* Flat analysis                                                       *)
(* ------------------------------------------------------------------ *)

(** The result of a worklist run over the flattened form: per-op entry
    states and per-[FJumpIfNot] decisions. Op indices are the
    {!Ir.Flat.t} [ops] indices (the [zplc dump --flat] lines). *)
type flat_summary = {
  f_states : state option array;
      (** abstract state before each op; [None] = unreachable *)
  f_decisions : bool option array;
      (** per [FJumpIfNot] index: [Some b] when the condition is
          provably [b] on every execution reaching it *)
}

(** [reachable_flat f idx] — whether any feasible execution reaches op
    [idx] (per the abstract semantics; unreachable is definite). *)
val reachable_flat : flat_summary -> int -> bool

val decide_flat : flat_summary -> int -> bool option
val analyze_flat : Ir.Flat.t -> flat_summary
