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

    Sub-libraries are re-exported so [commopt] is the only dependency a
    user needs. *)

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

(** Compile mini-ZPL source text under an optimization configuration.
    [defines] overrides [constant] declarations (e.g. problem size).
    [check] runs {!Analysis.Schedcheck} on the emitted schedule and
    fails with its diagnostics if any checker fires. [machine]/[lib]/
    [mesh] are the collective-synthesis targets (see
    {!Opt.Passes.compile}); when synthesizing, simulate on the same
    mesh. *)
let compile ?(config = Opt.Config.pl_cum) ?defines ?check ?machine ?lib ?mesh
    (src : string) : compiled =
  let prog = Zpl.Check.compile_string ?defines src in
  let ir = Opt.Passes.compile ?check ?machine ?lib ?mesh config prog in
  { prog; config; ir; flat = Ir.Flat.flatten ir }

(** Re-optimize an already-checked program under another configuration. *)
let recompile ?check ?machine ?lib ?mesh ~(config : Opt.Config.t)
    (c : compiled) : compiled =
  let ir = Opt.Passes.compile ?check ?machine ?lib ?mesh config c.prog in
  { c with config; ir; flat = Ir.Flat.flatten ir }

(** The spec-based entry: compile the artifacts described by a
    {!Run.Spec.t}, answered from [cache] when given (identical specs
    then share everything, including the engine plans behind
    [Run.Cache.engine]). Without a cache no engine is planned. *)
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

(** Simulate on [mesh] (default 4x4) of the given machine/library (default
    T3D + PVM). *)
let simulate ?(machine = Machine.T3d.machine) ?(lib = Machine.T3d.pvm)
    ?(mesh = (4, 4)) ?limit (c : compiled) : Sim.Engine.result =
  let pr, pc = mesh in
  Sim.Engine.run
    (Sim.Engine.of_plans ?limit
       (Sim.Engine.plan ~machine ~lib ~pr ~pc c.flat))

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

(** [verify c] simulates and checks the result against the oracle; returns
    the simulation result or fails naming the first divergent cell. *)
let verify ?machine ?lib ?mesh ?(tolerance = 1e-9) (c : compiled) :
    Sim.Engine.result =
  let res = simulate ?machine ?lib ?mesh c in
  let oracle = run_oracle c in
  match first_divergence ~tolerance c res oracle with
  | None -> res
  | Some d ->
      Fmt.failwith "simulation diverges from the sequential oracle: %a"
        pp_divergence d
