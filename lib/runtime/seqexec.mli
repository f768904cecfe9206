(** Sequential reference executor: runs a typed program directly on global
    (undistributed) storage — the semantic oracle every optimizer
    configuration and machine model is tested against. Array statements
    run one at a time through the row-compiled fast path by default,
    like the simulator's, and the per-point interpreter is the fallback
    and differential-testing oracle. *)

type t = {
  prog : Zpl.Prog.t;
  stores : Store.t array;  (** one global store per array *)
  env : Values.env;
  row_path : bool;  (** whether array statements may use the row path *)
  on_scalar : int -> Values.value -> unit;
      (** observation hook, called with (scalar id, new value) after
          every scalar write — loop variable updates included. Used by
          the Absint soundness property to check every concrete scalar
          trace against the abstract hull. Default: no-op. *)
  mutable steps : int;  (** simple statements executed *)
  mutable cells : int;  (** array cells updated or reduced *)
}

(** Raised when the statement budget is exhausted (runaway [repeat]). *)
exception Step_limit of int

val make :
  ?row_path:bool ->
  ?on_scalar:(int -> Values.value -> unit) ->
  Zpl.Prog.t ->
  t

(** Run to completion. [limit] bounds executed simple statements
    (default 10 million). [row_path] defaults to [true]; [false] forces
    the per-point fallback everywhere. Results (stores, scalars, steps,
    cells) are bit-identical either way — property-tested in
    [test_props.ml]. *)
val run :
  ?limit:int ->
  ?row_path:bool ->
  ?on_scalar:(int -> Values.value -> unit) ->
  Zpl.Prog.t ->
  t

val scalar_value : t -> string -> Values.value option
val array_store : t -> string -> Store.t option
