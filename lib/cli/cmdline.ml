(** Shared command-line vocabulary of the drivers ([zplc] and the bench
    harness): one converter and one {!Cmdliner} term per {!Run.Spec.t}
    field, plus the assembly function that parses flags straight into a
    spec. Keeping the flag grammar here means every entry point spells
    [-O pl --lib shmem -p 4x4] the same way — and produces the same
    cache key for it. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** A source is either a file path or the name of a bundled benchmark. *)
let load_source path =
  if Sys.file_exists path then read_file path
  else
    match Programs.Suite.find path with
    | Some b -> b.Programs.Bench_def.source
    | None -> Fmt.failwith "no such file or bundled benchmark: %s" path

let src_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROG" ~doc:"mini-ZPL source file or bundled benchmark name")

let config_of_string = function
  | "baseline" | "none" -> Ok Opt.Config.baseline
  | "rr" -> Ok Opt.Config.rr_only
  | "cc" -> Ok Opt.Config.cc_cum
  | "pl" -> Ok Opt.Config.pl_cum
  | "pl-maxlat" | "maxlat" -> Ok Opt.Config.pl_max_latency
  | s -> Error (`Msg (Printf.sprintf "unknown optimization level %S" s))

let config_conv =
  Arg.conv
    ( config_of_string,
      fun ppf c -> Fmt.string ppf (Opt.Config.name c) )

let config_arg =
  Arg.(
    value
    & opt config_conv Opt.Config.pl_cum
    & info [ "O"; "opt" ] ~docv:"LEVEL"
        ~doc:"optimization level: baseline | rr | cc | pl | pl-maxlat")

let collective_conv =
  Arg.conv
    ( (fun s ->
        match Opt.Config.collective_of_string s with
        | Some c -> Ok c
        | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown collective mode %S (opaque | auto | ring | \
                     binomial | recdouble | dissem)"
                    s))),
      fun ppf c -> Fmt.string ppf (Opt.Config.collective_name c) )

(** [None] keeps the optimization level's own setting (opaque for all
    presets); [Some _] overrides it. *)
let collective_arg =
  Arg.(
    value
    & opt (some collective_conv) None
    & info [ "collective" ] ~docv:"MODE"
        ~doc:
          "how full reductions compile: opaque (vendor collective) | ring | \
           binomial | recdouble | dissem (force one synthesized algorithm) \
           | auto (cost-model search over the target machine)")

let with_collective collective (config : Opt.Config.t) =
  match collective with
  | None -> config
  | Some c -> { config with Opt.Config.collective = c }

let lib_of_string = function
  | "pvm" -> Ok (Machine.T3d.machine, Machine.T3d.pvm)
  | "shmem" -> Ok (Machine.T3d.machine, Machine.T3d.shmem)
  | "csend" | "nx" -> Ok (Machine.Paragon.machine, Machine.Paragon.nx_sync)
  | "isend" -> Ok (Machine.Paragon.machine, Machine.Paragon.nx_async)
  | "hsend" -> Ok (Machine.Paragon.machine, Machine.Paragon.nx_callback)
  | s -> Error (`Msg (Printf.sprintf "unknown library %S" s))

let lib_conv =
  Arg.conv
    ( lib_of_string,
      fun ppf (_, l) ->
        Fmt.string ppf l.Machine.Library.costs.Machine.Params.lib_name )

let lib_arg =
  Arg.(
    value
    & opt lib_conv (Machine.T3d.machine, Machine.T3d.pvm)
    & info [ "lib" ] ~docv:"LIB"
        ~doc:"communication library: pvm | shmem | csend | isend | hsend")

let mesh_conv =
  let parse s =
    match String.split_on_char 'x' (String.lowercase_ascii s) with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some pr, Some pc when pr > 0 && pc > 0 -> Ok (pr, pc)
        | _ -> Error (`Msg "mesh must be RxC, e.g. 4x4"))
    | _ -> Error (`Msg "mesh must be RxC, e.g. 4x4")
  in
  Arg.conv (parse, fun ppf (r, c) -> Fmt.pf ppf "%dx%d" r c)

let mesh_arg =
  Arg.(
    value
    & opt mesh_conv (4, 4)
    & info [ "p"; "mesh" ] ~docv:"RxC" ~doc:"processor mesh, e.g. 8x8")

let topology_conv =
  Arg.conv
    ( (fun s ->
        match Machine.Topology.of_name (String.lowercase_ascii s) with
        | Some t -> Ok t
        | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown topology %S (ideal | mesh | torus)" s))),
      Machine.Topology.pp )

let topology_arg =
  Arg.(
    value
    & opt topology_conv Machine.Topology.Ideal
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "interconnect model: ideal (flat crossbar, no contention — the \
           default) | mesh | torus (dimension-order routing with per-link \
           occupancy; also steers the collective cost search)")

let define_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i -> (
        let k = String.sub s 0 i
        and v = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt v with
        | Some f -> Ok (k, f)
        | None -> Error (`Msg "define must be NAME=NUMBER"))
    | None -> Error (`Msg "define must be NAME=NUMBER")
  in
  Arg.conv (parse, fun ppf (k, v) -> Fmt.pf ppf "%s=%g" k v)

let defines_arg =
  Arg.(
    value
    & opt_all define_conv []
    & info [ "D"; "define" ] ~docv:"NAME=VALUE"
        ~doc:"override a constant declaration (repeatable)")

(* -------------------------------------------------------------- *)
(* Engine knobs (simulation-affecting flags of `zplc run`)         *)
(* -------------------------------------------------------------- *)

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"statically verify the emitted schedule (schedcheck)")

(* -------------------------------------------------------------- *)
(* Flags shared by the bench harness                               *)
(* -------------------------------------------------------------- *)

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"reduced problem size")

let scale_of_quick quick = if quick then `Test else `Bench

let baseline_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "compare throughput keys against a previous BENCH_*.json and exit 3 \
           on any >= 5% regression")

(* -------------------------------------------------------------- *)
(* Flags -> Run.Spec.t                                             *)
(* -------------------------------------------------------------- *)

(** The spec the compile-relevant flags describe: [src] is a path or a
    bundled benchmark name (see {!load_source}); [collective] overrides
    the config's collective mode when given. Engine knobs keep their
    {!Run.Spec.default}s — refine with [Run.Spec.with_*]. *)
let make_spec src defines config collective (machine, lib) (pr, pc) topology :
    Run.Spec.t =
  let spec =
    let open Run.Spec in
    default (load_source src)
    |> with_defines defines |> with_config config
    |> with_target machine lib |> with_mesh pr pc
    |> with_topology topology
  in
  match collective with
  | None -> spec
  | Some c -> Run.Spec.with_collective c spec

(** A term over the whole shared flag set, evaluating to the described
    {!Run.Spec.t} (PROG positional +
    -D/-O/--collective/--lib/-p/--topology). *)
let spec_term =
  Term.(
    const make_spec $ src_arg $ defines_arg $ config_arg $ collective_arg
    $ lib_arg $ mesh_arg $ topology_arg)

(** Run [f], mapping failures to exit code 1 with an [error:] line.
    [Invalid_argument] is a failure too: [Sim.Engine.plan] raises it
    for a mesh the program cannot be laid out on. So are a simulation
    that deadlocks and one that exceeds its instruction budget (a loop
    that never ends), and an oracle check whose sequential run exceeds
    its statement budget. *)
let handle f =
  let fail msg =
    Printf.eprintf "error: %s\n" msg;
    1
  in
  match Zpl.Loc.guard f with
  | Ok () -> 0
  | Error msg | (exception (Failure msg | Invalid_argument msg)) -> fail msg
  | exception Sim.Engine.Deadlock msg -> fail ("deadlock: " ^ msg)
  | exception Sim.Engine.Instruction_limit n ->
      fail
        (Printf.sprintf
           "a processor exceeded the instruction limit of %d (a loop that \
            never ends?)"
           n)
  | exception Runtime.Seqexec.Step_limit n ->
      fail
        (Printf.sprintf
           "the sequential oracle exceeded its budget of %d statements" n)
