(** High-level API of the communication-optimization study.

    The pipeline mirrors the paper's instrumented ZPL compiler:

    {v
    mini-ZPL source
      --parse/check-->   Zpl.Prog.t        (typed whole-array program)
      --dbe---------->   Zpl.Prog.t        (decided branches spliced)
      --lower-------->   Ir.Block.code     (baseline vectorized comm)
      --optimize----->   Ir.Block.code     (rr / cc / pl applied)
      --emit--------->   Ir.Instr.program  (IRONMAN DR/SR/DN/SV calls)
      --flatten------>   Ir.Flat.t         (jump-threaded SPMD code)
      --simulate----->   Sim.Engine.result (counts + simulated time)
    v}

    Every stage is driven by one {!Run.Spec.t}: {!of_spec} compiles it,
    {!Run.Cache} plans and runs it, and {!verify} checks the run against
    the sequential oracle. Sub-libraries are re-exported so [commopt] is
    the only dependency a user needs. *)

module Zpl = Zpl
module Ir = Ir
module Opt = Opt
module Analysis = Analysis
module Machine = Machine
module Runtime = Runtime
module Sim = Sim
module Programs = Programs
module Run = Run
module Report = Report

type compiled = {
  prog : Zpl.Prog.t;
  config : Opt.Config.t;
  ir : Ir.Instr.program;
  flat : Ir.Flat.t;
}

(** Compile the artifacts described by a {!Run.Spec.t}, answered from
    [cache] when given (identical specs then share everything, including
    the engine plans every [Run.Cache.run] of the spec mints from).
    Without a cache no engine is planned. *)
let of_spec ?cache (spec : Run.Spec.t) : compiled =
  let prog, ir, flat =
    match cache with
    | Some c ->
        let a = Run.Cache.artifact c spec in
        Run.Spec.(a.a_prog, a.a_ir, a.a_flat)
    | None -> Run.Spec.compile spec
  in
  { prog; config = spec.Run.Spec.config; ir; flat }

let static_count (c : compiled) = Ir.Count.static_count c.ir

(** Run the sequential oracle on the same program. *)
let run_oracle ?limit (c : compiled) : Runtime.Seqexec.t =
  Runtime.Seqexec.run ?limit c.prog

(** One cell where the simulation disagrees with the oracle. *)
type divergence = {
  d_array : string;
  d_point : int array;
  d_got : float;  (** the simulated (gathered) value *)
  d_want : float;  (** the oracle's value *)
}

exception Found of divergence

(** Whether [got] diverges from the oracle's [want] beyond [tolerance].
    NaN-aware: [d > tolerance] alone is [false] whenever [d] is NaN, so
    the naive relative test silently passes a cell where the simulation
    produced NaN and the oracle did not (or where got/want are opposite
    infinities, whose difference quotient is NaN). Exactly one NaN is a
    divergence; two NaNs agree (the oracle predicted the NaN); equal
    values — including equal infinities, whose relative difference would
    be NaN — agree. *)
let cell_diverges ~tolerance ~got ~want =
  if Float.is_nan got || Float.is_nan want then
    not (Float.is_nan got && Float.is_nan want)
  else if got = want then false
  else
    let d = Float.abs (want -. got) /. (1.0 +. Float.abs want) in
    Float.is_nan d || d > tolerance

(** First cell (array-declaration order, then row-major point order)
    diverging from the oracle beyond [tolerance] (per {!cell_diverges}).
    Compares whole rows through the flat buffers — one index computation
    per row rather than per cell — so verification keeps pace with the
    row-compiled kernels it checks. *)
let first_divergence ?(tolerance = 1e-9) (c : compiled)
    (res : Sim.Engine.result) (oracle : Runtime.Seqexec.t) :
    divergence option =
  try
    Array.iteri
      (fun aid (info : Zpl.Prog.array_info) ->
        let par = Sim.Engine.gather res.Sim.Engine.engine aid in
        let sq = oracle.Runtime.Seqexec.stores.(aid) in
        let got_buf = Runtime.Store.read_only par
        and want_buf = Runtime.Store.read_only sq in
        Zpl.Region.iter_rows info.a_region (fun p0 len ->
            let gb = Runtime.Store.index par p0
            and wb = Runtime.Store.index sq p0 in
            for k = 0 to len - 1 do
              let got = Bigarray.Array1.unsafe_get got_buf (gb + k)
              and want = Bigarray.Array1.unsafe_get want_buf (wb + k) in
              if cell_diverges ~tolerance ~got ~want then begin
                let pt = Array.copy p0 in
                let last = Array.length pt - 1 in
                pt.(last) <- pt.(last) + k;
                raise
                  (Found
                     { d_array = info.a_name;
                       d_point = pt;
                       d_got = got;
                       d_want = want })
              end
            done))
      c.prog.Zpl.Prog.arrays;
    None
  with Found d -> Some d

let pp_divergence ppf (d : divergence) =
  Fmt.pf ppf "%s[%a] = %.17g, oracle says %.17g" d.d_array
    Fmt.(array ~sep:(any ", ") int)
    d.d_point d.d_got d.d_want

(** [verify spec] runs [spec] through [cache] (default: a fresh one)
    and checks the result against the oracle; returns the simulation
    result or fails naming the first divergent cell. Compile and
    simulate share the spec's one target, and a spec already run through
    [cache] is verified on its cached plans. *)
let verify ?(cache = Run.Cache.create ()) ?(tolerance = 1e-9)
    (spec : Run.Spec.t) : Sim.Engine.result =
  let c = of_spec ~cache spec in
  let res = Run.Cache.run cache spec in
  match first_divergence ~tolerance c res (run_oracle c) with
  | None -> res
  | Some d ->
      Fmt.failwith "simulation diverges from the sequential oracle: %a"
        pp_divergence d
