(** [main.exe compare A1 A2 .. -- B1 B2 ..]: compare two sets of runs,
    each file being one run's standard output (its [# workload] header
    and its final JSON line). For every end-to-end metric of
    [BENCHMARK.json] (read from the working directory) and every
    workload, print each side's median and quartiles and a verdict:

    - [unresolved] when A's own spread (q3 - q1) is wider than the
      metric's bound, unless every B run beats every A run ([better]);
    - [worse] when B's median is worse than A's by more than the bound;
    - [better] when B's median beats A's by more than A's spread and B
      wins at least nine tenths of the runs paired in order;
    - [same] otherwise. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* Enough JSON for BENCHMARK.json and the result line: no \u escapes
   beyond ASCII. *)
let parse_json (s : string) : json =
  let n = String.length s and pos = ref 0 in
  let fail what = failwith (Printf.sprintf "JSON: %s at byte %d" what !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\t' | '\r' ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          (match s.[!pos + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 2) 4)));
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          pos := !pos + 2;
          go ()
      | '\000' -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> seq '}' (fun () -> let k = str () in expect ':'; (k, value ())) (fun l -> Obj l)
    | '[' -> seq ']' value (fun l -> Arr l)
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n && String.contains "+-0123456789.eE" s.[!pos]
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  and seq : 'a. char -> (unit -> 'a) -> ('a list -> json) -> json =
   fun close item k ->
    incr pos;
    ws ();
    if peek () = close then (
      incr pos;
      k [])
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' ->
            incr pos;
            go acc
        | c when c = close ->
            incr pos;
            k (List.rev acc)
        | _ -> fail "expected ',' or close"
      in
      go []
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_string = function Str s -> s | _ -> failwith "JSON: expected a string"
let to_num = function Num f -> f | _ -> failwith "JSON: expected a number"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** First and third quartiles by Python's [statistics.quantiles(xs,
    n=4)] (the default, exclusive method); one value is its own
    quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let verdict ~lower ~bound a b =
  (* [worse x y]: how much worse y is than x, in the metric's direction *)
  let worse x y = if lower then y -. x else x -. y in
  let ma = median a and mb = median b in
  let q1, q3 = quartiles a in
  let spread = q3 -. q1 and limit = bound *. Float.abs ma in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> worse x y < 0.0) b) a in
  let rec pairs xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
  in
  let ps = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> worse x y < 0.0) ps) in
  if spread > limit then if all_better then "better" else "unresolved"
  else if worse ma mb > limit then "worse"
  else if -.worse ma mb > spread && ps <> [] && 10 * wins >= 9 * List.length ps then "better"
  else "same"

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(** A run file: its workload (from the [# workload] header) and its
    metric values (from the last line). *)
let load path =
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let workload =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "# workload %s " Fun.id)
      lines
  in
  match (workload, List.rev lines) with
  | Some w, last :: _ ->
      let metrics =
        match member "metrics" (parse_json last) with
        | Obj l -> List.map (fun (k, v) -> (k, to_num (member "value" v))) l
        | _ -> []
      in
      (w, metrics)
  | _ -> failwith (path ^ ": not the output of a benchmark run")

let main args =
  let rec split acc = function
    | "--" :: rest -> Some (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  match split [] args with
  | Some ((_ :: _ as a), (_ :: _ as b)) ->
      let bench = parse_json (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
      let runs_a = List.map load a and runs_b = List.map load b in
      let workloads = List.sort_uniq compare (List.map fst (runs_a @ runs_b)) in
      Printf.printf "%-8s %-14s %-30s %-30s %s\n" "workload" "metric" "A median [q1, q3]"
        "B median [q1, q3]" "verdict";
      List.iter
        (fun w ->
          List.iter
            (fun m ->
              let name = to_string (member "name" m) in
              let values runs =
                List.filter_map
                  (fun (w', ms) -> if w' = w then List.assoc_opt name ms else None)
                  runs
              in
              match (values runs_a, values runs_b) with
              | [], _ | _, [] -> ()
              | va, vb ->
                  let show v =
                    let q1, q3 = quartiles v in
                    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (median v) q1 q3 (List.length v)
                  in
                  Printf.printf "%-8s %-14s %-30s %-30s %s\n" w name (show va) (show vb)
                    (verdict
                       ~lower:(to_string (member "better" m) = "lower")
                       ~bound:(to_num (member "bound" m))
                       va vb))
            (to_list (member "end_to_end" bench)))
        workloads;
      0
  | _ ->
      prerr_endline "usage: main.exe compare A1.out A2.out .. -- B1.out B2.out ..";
      2
