(** Static-vs-dynamic cross-validation: compile a {!Spec}, run the
    {!Analysis.Commvol} analyzer over the final IR, run the engine, and
    check that substituting the measured per-site activation counts into
    the analyzer's per-activation coefficients reproduces the engine's
    dynamic statistics {e exactly} — integer equality for every message,
    byte and transfer counter on every processor — while the purely
    static interval bounds bracket them.

    The join between the two worlds is {!Sim.Engine.op_counts} (completed
    executions per flat op) and {!Ir.Flat.t.src_of_op} (flat op back to
    preorder instruction position): a communication site's measured
    activation count is the execution count of its first call's flat op.
    Counts and comm-CPU are topology-invariant, so the same exact checks
    hold under mesh/torus topologies; only arrival/wait times move. *)

module Commvol = Analysis.Commvol
module Absint = Analysis.Absint

type site_check = {
  sc_site : Commvol.site;
  sc_measured : int;  (** engine activation count of the site *)
}

type t = {
  p_spec : Spec.t;
  p_prog : Zpl.Prog.t;
  p_vol : Commvol.t;
  p_sites : site_check list;  (** preorder position order *)
  p_stats : Sim.Stats.t;
  p_time : float;  (** simulated makespan, reported alongside *)
}

(* comm-CPU is a float accumulated in engine event order; our per-site
   regrouping sums the same terms in a different order, so exact float
   equality is not owed — a tight relative tolerance is. *)
let cpu_rtol = 1e-9

let cpu_close a b =
  Float.abs (a -. b) <= cpu_rtol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(** Analyze [spec] and run it once, through [cache] (default a fresh
    one), like every other run. *)
let analyze ?(cache = Cache.create ()) (spec : Spec.t) : t =
  let art = Cache.artifact cache spec in
  let pr, pc = spec.Spec.mesh in
  let vol =
    Commvol.analyze ~lib:spec.Spec.lib ~pr ~pc art.Spec.a_ir
  in
  let engine = Spec.engine_of art in
  let res = Sim.Engine.run engine in
  let counts = Sim.Engine.op_counts engine in
  let flat = art.Spec.a_flat in
  (* measured activations: the execution count of the site's first call *)
  let count_at pos =
    let n = Array.length flat.Ir.Flat.ops in
    let rec find i =
      if i >= n then
        Fmt.failwith "Predict: no flat op for comm site at ir#%d" pos
      else
        match flat.Ir.Flat.ops.(i) with
        | Ir.Flat.FComm _ when flat.Ir.Flat.src_of_op.(i) = pos -> counts.(i)
        | _ -> find (i + 1)
    in
    find 0
  in
  let sites =
    List.map
      (fun (s : Commvol.site) ->
        { sc_site = s; sc_measured = count_at s.Commvol.st_pos })
      vol.Commvol.cv_sites
  in
  { p_spec = spec;
    p_prog = art.Spec.a_prog;
    p_vol = vol;
    p_sites = sites;
    p_stats = res.Sim.Engine.stats;
    p_time = res.Sim.Engine.time }

let acts_of (t : t) : Commvol.site -> int =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sc -> Hashtbl.replace tbl sc.sc_site.Commvol.st_pos sc.sc_measured)
    t.p_sites;
  fun s -> Hashtbl.find tbl s.Commvol.st_pos

(** Every static-vs-dynamic check, as one message per violation; [[]]
    means exact agreement everywhere. *)
let verify (t : t) : string list =
  let bad = ref [] in
  let fail fmt = Fmt.kstr (fun m -> bad := m :: !bad) fmt in
  let acts = acts_of t in
  (* per-site: the static activation bound must contain the measurement *)
  List.iter
    (fun sc ->
      let s = sc.sc_site in
      if not (Absint.contains s.Commvol.st_acts (float_of_int sc.sc_measured))
      then
        fail "ir#%d %s: measured %d activations outside static bound %s"
          s.Commvol.st_pos s.Commvol.st_desc sc.sc_measured
          (Absint.string_of_ival s.Commvol.st_acts))
    t.p_sites;
  let nprocs = t.p_vol.Commvol.cv_nprocs in
  for p = 0 to nprocs - 1 do
    let ex = Commvol.exact_totals t.p_vol ~acts p in
    let m = t.p_stats.Sim.Stats.procs.(p) in
    let exact what pred meas =
      if pred <> meas then
        fail "proc %d %s: predicted %d, engine measured %d" p what pred meas
    in
    exact "msgs_sent" ex.Commvol.e_msgs_sent m.Sim.Stats.msgs_sent;
    exact "msgs_recv" ex.Commvol.e_msgs_recv m.Sim.Stats.msgs_recv;
    exact "bytes_sent" ex.Commvol.e_bytes_sent m.Sim.Stats.bytes_sent;
    exact "bytes_recv" ex.Commvol.e_bytes_recv m.Sim.Stats.bytes_recv;
    exact "xfers_sent" ex.Commvol.e_xfers_sent m.Sim.Stats.xfers_sent;
    exact "xfers_recv" ex.Commvol.e_xfers_recv m.Sim.Stats.xfers_recv;
    let cpu = m.Sim.Stats.times.Sim.Stats.comm_cpu in
    if not (cpu_close ex.Commvol.e_cpu cpu) then
      fail "proc %d comm_cpu: predicted %.12g, engine measured %.12g" p
        ex.Commvol.e_cpu cpu;
    (* static bounds must bracket the measurement *)
    let tot = Commvol.proc_totals t.p_vol p in
    let bracket what (iv : Absint.ival) meas =
      if not (Absint.contains iv meas) then
        fail "proc %d %s: measured %g outside static bound %s" p what meas
          (Absint.string_of_ival iv)
    in
    bracket "msgs_sent" tot.Commvol.t_msgs_sent
      (float_of_int m.Sim.Stats.msgs_sent);
    bracket "msgs_recv" tot.Commvol.t_msgs_recv
      (float_of_int m.Sim.Stats.msgs_recv);
    bracket "bytes_sent" tot.Commvol.t_bytes_sent
      (float_of_int m.Sim.Stats.bytes_sent);
    bracket "bytes_recv" tot.Commvol.t_bytes_recv
      (float_of_int m.Sim.Stats.bytes_recv);
    (* the cpu interval's endpoints come from interval multiplication
       while the engine accumulates the same terms by repeated addition,
       so the bracket gets the same ulp slack as the equality check *)
    let civ = tot.Commvol.t_cpu in
    let slack = cpu_rtol *. Float.max 1.0 (Float.abs cpu) in
    if
      not
        (Absint.contains civ cpu
        || (cpu >= civ.Absint.lo -. slack && cpu <= civ.Absint.hi +. slack))
    then
      fail "proc %d comm_cpu: measured %.12g outside static bound %s" p cpu
        (Absint.string_of_ival civ)
  done;
  let dc_meas = Sim.Stats.dynamic_count t.p_stats in
  let dc_pred = Commvol.exact_dynamic_count t.p_vol ~acts in
  if dc_pred <> dc_meas then
    fail "dynamic count: predicted %d, engine measured %d" dc_pred dc_meas;
  let dc_bound = Commvol.dynamic_count_bound t.p_vol in
  if not (Absint.contains dc_bound (float_of_int dc_meas)) then
    fail "dynamic count: measured %d outside static bound %s" dc_meas
      (Absint.string_of_ival dc_bound);
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(** Whole-program aggregates, for the predicted table. *)
type summary = {
  s_messages_pred : int;  (** sum over processors of predicted msgs_sent *)
  s_messages_meas : int;
  s_bytes_pred : int;
  s_bytes_meas : int;
  s_cpu_pred : float;  (** max over processors, like the makespan *)
  s_cpu_meas : float;
  s_dyn_pred : int;
  s_dyn_meas : int;
  s_dyn_bound : Absint.ival;
  s_messages_bound : Absint.ival;  (** interval sum over processors *)
  s_bytes_bound : Absint.ival;
}

let summarize (t : t) : summary =
  let acts = acts_of t in
  let nprocs = t.p_vol.Commvol.cv_nprocs in
  let mp = ref 0 and bp = ref 0 and cp = ref 0.0 in
  let mb = ref (Absint.point 0.0) and bb = ref (Absint.point 0.0) in
  for p = 0 to nprocs - 1 do
    let ex = Commvol.exact_totals t.p_vol ~acts p in
    mp := !mp + ex.Commvol.e_msgs_sent;
    bp := !bp + ex.Commvol.e_bytes_sent;
    if ex.Commvol.e_cpu > !cp then cp := ex.Commvol.e_cpu;
    let tot = Commvol.proc_totals t.p_vol p in
    mb := Absint.add !mb tot.Commvol.t_msgs_sent;
    bb := Absint.add !bb tot.Commvol.t_bytes_sent
  done;
  let cmeas = ref 0.0 in
  Array.iter
    (fun (m : Sim.Stats.per_proc) ->
      let c = m.Sim.Stats.times.Sim.Stats.comm_cpu in
      if c > !cmeas then cmeas := c)
    t.p_stats.Sim.Stats.procs;
  { s_messages_pred = !mp;
    s_messages_meas = Sim.Stats.total_messages t.p_stats;
    s_bytes_pred = !bp;
    s_bytes_meas = Sim.Stats.total_bytes t.p_stats;
    s_cpu_pred = !cp;
    s_cpu_meas = !cmeas;
    s_dyn_pred = Commvol.exact_dynamic_count t.p_vol ~acts;
    s_dyn_meas = Sim.Stats.dynamic_count t.p_stats;
    s_dyn_bound = Commvol.dynamic_count_bound t.p_vol;
    s_messages_bound = !mb;
    s_bytes_bound = !bb }

(** Per-site table rows: position, transfer, description, static
    activation bound, measured activations. *)
let site_rows (t : t) : string list list =
  List.map
    (fun sc ->
      let s = sc.sc_site in
      [ Printf.sprintf "ir#%d" s.Commvol.st_pos;
        string_of_int s.Commvol.st_xfer;
        s.Commvol.st_desc;
        Absint.string_of_ival s.Commvol.st_acts;
        string_of_int sc.sc_measured ])
    t.p_sites

let site_header = [ "site"; "xfer"; "transfer"; "static acts"; "measured" ]

(** One JSON object per analysis, for the CI artifact. *)
let to_json ?(name = "") (t : t) : string =
  let s = summarize t in
  let mismatches = verify t in
  let b = Buffer.create 1024 in
  (* [sep] opens an object or separates a field from the one before *)
  let key sep k =
    Buffer.add_char b sep;
    Json.add_str b k;
    Buffer.add_char b ':'
  in
  let int sep k v = key sep k; Json.add_int b v in
  let str sep k v = key sep k; Json.add_str b v in
  let exact sep k v = key sep k; Json.add_exact b v in
  let bound v =
    if v = Float.infinity then Json.add_str b "inf"
    else if v = Float.neg_infinity then Json.add_str b "-inf"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.bprintf b "%.0f" v
    else Json.add_exact b v
  in
  let ival sep k (i : Absint.ival) =
    key sep k;
    Buffer.add_char b '[';
    bound i.Absint.lo;
    Buffer.add_char b ',';
    bound i.Absint.hi;
    Buffer.add_char b ']'
  in
  let counts k pred meas bnd =
    key ',' k;
    int '{' "predicted" pred;
    int ',' "measured" meas;
    ival ',' "bound" bnd;
    Buffer.add_char b '}'
  in
  let pr, pc = t.p_spec.Spec.mesh in
  str '{' "program" (if name = "" then t.p_prog.Zpl.Prog.name else name);
  str ',' "config" (Opt.Config.name t.p_spec.Spec.config);
  str ',' "lib" t.p_spec.Spec.lib.Machine.Library.costs.Machine.Params.lib_name;
  str ',' "mesh" (Printf.sprintf "%dx%d" pr pc);
  str ',' "topology" (Machine.Topology.name t.p_spec.Spec.topology);
  key ',' "sites";
  Buffer.add_char b '[';
  List.iteri
    (fun k sc ->
      let st = sc.sc_site in
      if k > 0 then Buffer.add_char b ',';
      int '{' "pos" st.Commvol.st_pos;
      int ',' "xfer" st.Commvol.st_xfer;
      str ',' "desc" st.Commvol.st_desc;
      ival ',' "static" st.Commvol.st_acts;
      int ',' "measured" sc.sc_measured;
      Buffer.add_char b '}')
    t.p_sites;
  Buffer.add_char b ']';
  counts "messages" s.s_messages_pred s.s_messages_meas s.s_messages_bound;
  counts "bytes" s.s_bytes_pred s.s_bytes_meas s.s_bytes_bound;
  key ',' "comm_cpu";
  exact '{' "predicted" s.s_cpu_pred;
  exact ',' "measured" s.s_cpu_meas;
  Buffer.add_char b '}';
  counts "dynamic_count" s.s_dyn_pred s.s_dyn_meas s.s_dyn_bound;
  exact ',' "time" t.p_time;
  key ',' "ok";
  Json.add_bool b (mismatches = []);
  Buffer.add_char b '}';
  Buffer.contents b
