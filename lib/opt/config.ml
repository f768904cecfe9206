(** Optimization selection. The paper's instrumented compiler "considers
    all optimizations simultaneously, [but] the optimizations can be turned
    on and off individually" — this record is that switchboard.
    Dead-branch elimination always runs (see {!Passes.compile}). *)

type heuristic =
  | Max_combine  (** combine without regard for send/receive distance *)
  | Max_latency  (** combine only while no latency-hiding ability is lost *)
[@@deriving show, eq]

(** How full reductions compile: left as the opaque [ReduceK] vendor
    collective, synthesized into explicit DR/SR/DN/SV rounds of one
    forced algorithm, or synthesized with the cheapest algorithm under
    the target machine's cost model (see {!Collective}). *)
type collective = Opaque | Auto | Forced of Ir.Coll.alg [@@deriving show, eq]

type t = {
  rr : bool;  (** redundant communication removal *)
  cc : bool;  (** communication combination *)
  pl : bool;  (** communication pipelining *)
  heuristic : heuristic;
  collective : collective;  (** full-reduction synthesis *)
}
[@@deriving show, eq]

let baseline =
  { rr = false;
    cc = false;
    pl = false;
    heuristic = Max_combine;
    collective = Opaque }

(** The cumulative experiment rows of the paper's Figure 9. *)
let rr_only = { baseline with rr = true }

let cc_cum = { baseline with rr = true; cc = true }
let pl_cum = { baseline with rr = true; cc = true; pl = true }
let pl_max_latency = { pl_cum with heuristic = Max_latency }

let collective_name = function
  | Opaque -> "opaque"
  | Auto -> "auto"
  | Forced a -> Ir.Coll.alg_name a

(** Inverse of {!collective_name}, for CLI flags. *)
let collective_of_string s =
  match s with
  | "opaque" -> Some Opaque
  | "auto" -> Some Auto
  | _ -> Option.map (fun a -> Forced a) (Ir.Coll.alg_of_name s)

let name c =
  let base =
    match (c.rr, c.cc, c.pl, c.heuristic) with
    | false, false, false, _ -> "baseline"
    | true, false, false, _ -> "rr"
    | true, true, false, Max_combine -> "cc"
    | true, true, true, Max_combine -> "pl"
    | true, true, true, Max_latency -> "pl-maxlat"
    | rr, cc, pl, h ->
        Printf.sprintf "%s%s%s%s"
          (if rr then "rr+" else "")
          (if cc then "cc+" else "")
          (if pl then "pl+" else "")
          (match h with Max_combine -> "maxcc" | Max_latency -> "maxlat")
  in
  match c.collective with
  | Opaque -> base
  | coll -> base ^ "+coll=" ^ collective_name coll
