type t = {
  source : string;
  defines : (string * float) list;
  config : Opt.Config.t;
  machine : Machine.Params.t;
  lib : Machine.Library.t;
  mesh : int * int;
  topology : Machine.Topology.t;
  check : bool;
  limit : int;
}

let default source =
  { source;
    defines = [];
    config = Opt.Config.pl_cum;
    machine = Machine.T3d.machine;
    lib = Machine.T3d.pvm;
    mesh = (4, 4);
    topology = Machine.Topology.Ideal;
    check = false;
    limit = Runtime.Budget.default }

(* stable, so duplicate names keep their relative (semantic) order *)
let canon_defines ds =
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) ds

let with_defines ds t = { t with defines = canon_defines ds }
let with_config config t = { t with config }

let with_collective coll t =
  { t with config = { t.config with Opt.Config.collective = coll } }

let with_machine machine t = { t with machine }
let with_lib lib t = { t with lib }
let with_target machine lib t = { t with machine; lib }
let with_mesh pr pc t = { t with mesh = (pr, pc) }
let with_topology topology t = { t with topology }
let with_check check t = { t with check }
let with_limit limit t = { t with limit }

(* ------------------------------------------------------------------ *)
(* Canonical serialization and content address                         *)
(* ------------------------------------------------------------------ *)

(* Length-prefixed strings and fixed-width floats keep the serialization
   injective: no two distinct field values render to the same byte
   string, and a float renders as its exact IEEE-754 bits, 16 hex
   digits. *)

let add_s b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let hex_digits = "0123456789abcdef"

let add_f b (x : float) =
  let bits = Int64.bits_of_float x in
  for i = 15 downto 0 do
    Buffer.add_char b
      hex_digits.[Int64.to_int (Int64.shift_right_logical bits (4 * i)) land 15]
  done

let add_i b (i : int) =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_b b (v : bool) = Buffer.add_char b (if v then '1' else '0')

(* MD5s of recent sources, per domain, found by physical identity: the
   specs of one grid share one source string, so keying them digests
   the text once. An entry holds its string alive, so no other string
   can reuse its address while it is remembered. *)
type src_memo = {
  m_srcs : string array;
  m_digests : string array;
  mutable m_next : int;  (** round-robin replacement slot *)
}

let src_memo_size = 8

let src_memo : src_memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { m_srcs = Array.make src_memo_size "";
        m_digests = Array.make src_memo_size (Digest.string "");
        m_next = 0 })

let source_digest (src : string) : Digest.t =
  let m = Domain.DLS.get src_memo in
  let rec find i =
    if i = src_memo_size then begin
      let d = Digest.string src in
      m.m_srcs.(m.m_next) <- src;
      m.m_digests.(m.m_next) <- d;
      m.m_next <- (m.m_next + 1) mod src_memo_size;
      d
    end
    else if m.m_srcs.(i) == src then m.m_digests.(i)
    else find (i + 1)
  in
  find 0

let add_program b t =
  add_s b (source_digest t.source);
  List.iter
    (fun (name, v) ->
      add_s b name;
      add_f b v)
    (canon_defines t.defines)

let add_config b (c : Opt.Config.t) =
  add_b b c.Opt.Config.rr;
  add_b b c.Opt.Config.cc;
  add_b b c.Opt.Config.pl;
  Buffer.add_char b
    (match c.Opt.Config.heuristic with
    | Opt.Config.Max_combine -> 'C'
    | Opt.Config.Max_latency -> 'L');
  add_s b (Opt.Config.collective_name c.Opt.Config.collective)

let add_machine b (m : Machine.Params.t) =
  add_s b m.Machine.Params.name;
  add_f b m.Machine.Params.clock_mhz;
  add_f b m.Machine.Params.timer_granularity_ns;
  add_f b m.Machine.Params.sec_per_flop;
  add_f b m.Machine.Params.kernel_overhead;
  add_f b m.Machine.Params.scalar_op_cost;
  add_f b m.Machine.Params.wire_latency;
  add_f b m.Machine.Params.bandwidth

let add_lib b (l : Machine.Library.t) =
  Buffer.add_char b
    (match l.Machine.Library.kind with
    | Machine.Library.NX_sync -> 's'
    | Machine.Library.NX_async -> 'a'
    | Machine.Library.NX_callback -> 'h'
    | Machine.Library.PVM -> 'p'
    | Machine.Library.SHMEM -> 'm');
  let c = l.Machine.Library.costs in
  add_s b c.Machine.Params.lib_name;
  add_f b c.Machine.Params.dr_over;
  add_f b c.Machine.Params.sr_over;
  add_f b c.Machine.Params.dn_over;
  add_f b c.Machine.Params.sv_over;
  add_f b c.Machine.Params.send_byte;
  add_f b c.Machine.Params.recv_byte;
  add_f b c.Machine.Params.msg_latency;
  add_f b c.Machine.Params.token_latency

(* one serialization buffer per domain, cleared per digest *)
let key_buf : Buffer.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Buffer.create 256)

let digest_with fill t =
  let b = Domain.DLS.get key_buf in
  Buffer.clear b;
  fill b t;
  Digest.to_hex (Digest.string (Buffer.contents b))

let program_digest t = digest_with add_program t

let key t =
  digest_with
    (fun b t ->
      add_program b t;
      add_config b t.config;
      add_machine b t.machine;
      add_lib b t.lib;
      let pr, pc = t.mesh in
      add_i b pr;
      add_i b pc;
      add_s b (Machine.Topology.name t.topology);
      add_b b t.check)
    t

let equal a b = String.equal (key a) (key b)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type artifact = {
  a_spec : t;
  a_prog : Zpl.Prog.t;
  a_ir : Ir.Instr.program;
  a_flat : Ir.Flat.t;
  a_plans : Sim.Engine.plans;
}

let parse (spec : t) =
  Zpl.Check.compile_string ~defines:spec.defines spec.source

let compile ?prog (spec : t) =
  let prog = match prog with Some p -> p | None -> parse spec in
  let ir =
    Opt.Passes.compile ~check:spec.check ~machine:spec.machine ~lib:spec.lib
      ~mesh:spec.mesh ~topology:spec.topology spec.config prog
  in
  (prog, ir, Ir.Flat.flatten ir)

let plan ?geometry (spec : t) (flat : Ir.Flat.t) : Sim.Engine.plans =
  let pr, pc = spec.mesh in
  Sim.Engine.plan ~topology:spec.topology ?geometry ~machine:spec.machine
    ~lib:spec.lib ~pr ~pc flat

let build ?prog ?geometry (spec : t) : artifact =
  let prog, ir, flat = compile ?prog spec in
  { a_spec = spec;
    a_prog = prog;
    a_ir = ir;
    a_flat = flat;
    a_plans = plan ?geometry spec flat }

let engine_of (a : artifact) : Sim.Engine.t =
  Sim.Engine.of_plans ~limit:a.a_spec.limit a.a_plans
