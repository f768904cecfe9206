(** Sequential reference executor: runs a typed program directly on global
    (undistributed) storage — the semantic oracle every optimizer
    configuration and machine model is tested against. Array statements
    run one at a time through the row-compiled fast path by default,
    like the simulator's, and the per-point interpreter is the fallback
    and differential-testing oracle. Scalar code is compiled once by
    {!Values} into closures over typed slots, shared with the simulator:
    the two executors cannot disagree on scalar semantics, which
    [test_runtime]'s edge-semantics table pins from outside. *)

type t = {
  prog : Zpl.Prog.t;
  space : Zpl.Region.t;
      (** the index space ({!Zpl.Prog.index_space}), which a reduction
          over a loop-variant region may not leave *)
  stores : Store.t array;  (** one global store per array *)
  scalars : Values.layout;  (** where each scalar lives in [slots] *)
  slots : Values.slots;  (** the scalars, by id (see {!scalar_value}) *)
  kenv : Kernel.env;  (** the kernels' binding of [stores] and [slots] *)
  on_scalar : (int -> Values.value -> unit) option;
      (** observation hook, called with (scalar id, new value) after
          every scalar write — loop variable updates included. Used by
          the Absint soundness property to check every concrete scalar
          trace against the abstract hull. *)
  limit : int;  (** the work budget ({!Budget}) *)
  mutable steps : int;  (** simple statements executed *)
  mutable cells : int;  (** array cells updated or reduced *)
}

(** Run to completion. [limit] is the run's work budget (default
    {!Budget.default}, one budget with the simulator's): a program whose
    global stores hold more cells than [limit] fails with [Failure]
    before anything is allocated, and a run whose work ([steps] plus
    [cells]) passes it raises {!Budget.Exceeded} (a runaway [repeat]).
    A run the simulator finishes under a budget finishes here under the
    same one. [row_path] defaults to [true]; [false] forces the
    per-point fallback everywhere. Results (stores, scalars, steps,
    cells) are bit-identical either way — property-tested in
    [test_props.ml]. Raises [Invalid_argument] before running anything
    if the program is ill-typed (which the checker rules out). *)
val run :
  ?limit:int ->
  ?row_path:bool ->
  ?on_scalar:(int -> Values.value -> unit) ->
  Zpl.Prog.t ->
  t

(** A scalar read at its declared type: a float scalar assigned an int
    expression reads back as [VFloat]. *)
val scalar_value : t -> string -> Values.value option
val array_store : t -> string -> Store.t option
