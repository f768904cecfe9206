(** Host-time spans recorded by the harness around its calls into each
    layer. One tracer per traced repetition: the workload span holds
    tasks (one cell, spec or exhibit each), and each task keeps its own
    list of layer spans, so tasks running on different pool domains
    never share a list. Nothing is written until the repetition ends.

    A layer's self time is the sum of its span durations: layer calls
    are leaves (the harness never nests one inside another). What a
    task spends outside its layer spans, plus what the workload spends
    outside every task, is the residual. *)

type span = { layer : string; t0 : float; t1 : float; words : float }

type task = {
  name : string;
  op : bool;  (** one user-visible operation (cell or spec) *)
  tid : int;  (** host domain that ran the task *)
  start : float;
  mutable stop : float;
  mutable task_words : float;
  mutable spans : span list;  (** newest first *)
}

type t = {
  workload : string;
  w_start : float;
  mutable w_stop : float;
  mutable tasks : task list;
  lock : Mutex.t;
}

let now = Unix.gettimeofday

let create workload =
  { workload; w_start = now (); w_stop = nan; tasks = []; lock = Mutex.create () }

let finish t = t.w_stop <- now ()

(** [task t name f] runs [f] as one task of the repetition. The task is
    registered even when [f] raises, so its time stays accounted. *)
let task ?(op = false) t name f =
  let w0 = Gc.minor_words () in
  let tk =
    { name; op; tid = (Domain.self () :> int); start = now (); stop = nan;
      task_words = 0.0; spans = [] }
  in
  let close () =
    tk.stop <- now ();
    tk.task_words <- Gc.minor_words () -. w0;
    Mutex.lock t.lock;
    t.tasks <- tk :: t.tasks;
    Mutex.unlock t.lock
  in
  Fun.protect ~finally:close (fun () -> f tk)

(** [layer tk name f] times one call into layer [name]. *)
let layer tk name f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  tk.spans <- { layer = name; t0; t1; words = Gc.minor_words () -. w0 } :: tk.spans;
  r

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type summary = {
  wall : float;  (** the repetition's wall-clock seconds *)
  busy : float;
      (** host seconds accounted: task durations summed over domains
          plus workload time outside every task; equals [wall] when the
          tasks run one at a time *)
  self : (string * float * float) list;
      (** per layer: self seconds and minor words, summed over tasks *)
  residual : float * float;  (** seconds and minor words no layer covers *)
  op_times : float array;  (** sorted durations of the [op] tasks *)
}

(* Length of the union of [intervals]: the part of the workload span
   some task covers, so overlapping pool tasks are not counted twice. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None sorted

let summarize t : summary =
  let tbl = Hashtbl.create 16 in
  let res_s = ref 0.0 and res_w = ref 0.0 and busy = ref 0.0 in
  List.iter
    (fun tk ->
      let d = tk.stop -. tk.start in
      busy := !busy +. d;
      let in_s = ref 0.0 and in_w = ref 0.0 in
      List.iter
        (fun sp ->
          let s = sp.t1 -. sp.t0 in
          in_s := !in_s +. s;
          in_w := !in_w +. sp.words;
          let s0, w0 =
            Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl sp.layer)
          in
          Hashtbl.replace tbl sp.layer (s0 +. s, w0 +. sp.words))
        tk.spans;
      res_s := !res_s +. (d -. !in_s);
      res_w := !res_w +. (tk.task_words -. !in_w))
    t.tasks;
  let wall = t.w_stop -. t.w_start in
  let outside = wall -. covered (List.map (fun tk -> (tk.start, tk.stop)) t.tasks) in
  let op_times =
    t.tasks
    |> List.filter (fun tk -> tk.op)
    |> List.map (fun tk -> tk.stop -. tk.start)
    |> Array.of_list
  in
  Array.sort compare op_times;
  { wall;
    busy = !busy +. outside;
    self = Hashtbl.fold (fun k (s, w) acc -> (k, s, w) :: acc) tbl [];
    residual = (!res_s +. outside, !res_w);
    op_times }

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

(** The repetition as Chrome trace-event JSON (complete ["X"] events,
    microseconds from the workload start, one thread lane per domain):
    load it in chrome://tracing or Perfetto. *)
let chrome t : string =
  let b = Buffer.create 65536 in
  let first = ref true in
  let event ~name ~cat ~tid t0 t1 =
    Buffer.add_string b (if !first then "\n  " else ",\n  ");
    first := false;
    Buffer.add_char b '{';
    Run.Json.add_key b "name";
    Run.Json.add_str b name;
    Buffer.add_string b ", ";
    Run.Json.add_key b "cat";
    Run.Json.add_str b cat;
    Buffer.add_string b ", \"ph\": \"X\", ";
    Run.Json.add_key b "ts";
    Run.Json.add_fixed b 1 ((t0 -. t.w_start) *. 1e6);
    Buffer.add_string b ", ";
    Run.Json.add_key b "dur";
    Run.Json.add_fixed b 1 ((t1 -. t0) *. 1e6);
    Buffer.add_string b ", \"pid\": 1, ";
    Run.Json.add_key b "tid";
    Run.Json.add_int b tid;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"traceEvents\": [";
  event ~name:t.workload ~cat:"workload" ~tid:0 t.w_start t.w_stop;
  List.iter
    (fun tk ->
      event ~name:tk.name ~cat:"task" ~tid:tk.tid tk.start tk.stop;
      List.iter
        (fun sp -> event ~name:sp.layer ~cat:"layer" ~tid:tk.tid sp.t0 sp.t1)
        (List.rev tk.spans))
    (List.rev t.tasks);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
