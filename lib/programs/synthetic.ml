(** The synthetic benchmark of the paper's Section 3.2 (Figure 6): one
    message of a chosen size travels between two nodes per step, with a
    busy loop large enough to hide the wire transmission time; the busy
    loop's cost is subtracted, leaving the {e exposed software overhead}.

    [source] builds the communicating program on a 1x2 processor mesh: a
    strip of [m] rows and two columns, so the transfer for [B@east]
    carries exactly [m] boundary values from the second processor to the
    first. [busy_source] is the identical program with the communicating
    statement replaced by a local one; simulating both and subtracting
    isolates the overhead exactly as the paper does. The busy loop size
    [busyn] is chosen by the harness so the busy work exceeds the wire
    time of the largest message. *)

let template ~comm_east ~comm_west =
  Printf.sprintf
    {|
constant m     = 512;
constant iters = 200;
constant busyn = 512;

region Strip = [1..m, 1..2];
region BusyR = [1..busyn, 1..2];

direction east = [0, 1];
direction west = [0, -1];

var A, B : [0..m+1, 0..3] float;
var W : [0..busyn+1, 0..3] float;
var t : int;

procedure main();
begin
  [0..m+1, 0..3] B := Index1 * 0.5 + Index2;
  [0..busyn+1, 0..3] W := 1.0;
  for t := 1 to iters do
    [BusyR] W := W * 1.000001 + 0.000001;
    [BusyR] W := W * 0.999999 + 0.000002;
    [Strip] A := %s;
    [BusyR] W := W * 1.000001 + 0.000001;
    [Strip] B := %s;
  end;
end;
|}
    comm_east comm_west

(** Ping-pong: the message crosses east then west once per iteration, so
    each processor pays one send and one receive per transfer pair. *)
let source = template ~comm_east:"B@east + 0.0001" ~comm_west:"A@west * 0.9999"

(** Identical work, no communication. *)
let busy_source = template ~comm_east:"B + 0.0001" ~comm_west:"A * 0.9999"

(** Scale the message to [doubles] values and the busy loop to [busyn]
    rows (three 2-flop statements each). *)
let defines ~doubles ~busyn ~iters =
  [ ("m", float_of_int doubles); ("busyn", float_of_int busyn);
    ("iters", float_of_int iters) ]

(** Combine-heavy variant for the communication-runtime benchmark:
    eight member arrays cross east in {e one} combined message per
    iteration (the [cc] pass merges the eight same-shaped transfers),
    so every message carries eight pieces, which the wire-plan runtime
    packs into a single pooled staging buffer. The loop body is a
    single statement: compile it {e without} redundancy removal
    (e.g. [{ baseline with cc = true }]) so the repeated transfers
    survive, which keeps the non-communication share of each iteration
    — the noise floor of a subtracted measurement — as small as
    possible. The traffic is one-directional, so under the serial
    drain the sender runs the whole loop ahead of the receiver: no
    processor ever actually blocks after the first wait, which keeps
    scheduler cost out of the exposed difference — and the staging pool
    never recycles, so the wire path is measured at its {e worst} case
    (one fresh buffer per message). [combined_busy_source] is the same
    program with the shifted reads made local, for Figure-6-style
    busy-loop subtraction. *)
let combined_template ~refs =
  Printf.sprintf
    {|
constant m     = 8;
constant iters = 2000;

region Strip = [1..m, 1..2];

direction east = [0, 1];

var A, E, F, G, H, P, Q, R, S : [0..m+1, 0..3] float;
var t : int;

procedure main();
begin
  [0..m+1, 0..3] E := Index1 * 0.25;
  [0..m+1, 0..3] F := Index2 * 0.5;
  [0..m+1, 0..3] G := Index1 + Index2;
  [0..m+1, 0..3] H := Index1 - Index2;
  [0..m+1, 0..3] P := Index1 * 0.125;
  [0..m+1, 0..3] Q := Index2 * 0.25;
  [0..m+1, 0..3] R := Index1 * 2.0;
  [0..m+1, 0..3] S := Index2 * 2.0;
  for t := 1 to iters do
    [Strip] A := %s;
  end;
end;
|}
    refs

let combined_source =
  combined_template
    ~refs:
      "E@east + F@east + G@east + H@east + P@east + Q@east + R@east + S@east"

let combined_busy_source =
  combined_template ~refs:"E + F + G + H + P + Q + R + S"

let combined_defines ~doubles ~iters =
  [ ("m", float_of_int doubles); ("iters", float_of_int iters) ]

(** Reduction-heavy synthetic for the collective benchmark: three full
    reductions (sum, max, min) per iteration over a small grid, plus one
    cheap kernel statement that consumes the reduced scalars so no
    reduction can be optimized away. The grid is kept small so the
    per-rank partial is cheap and the measurement is dominated by the
    collective machinery itself — opaque rendezvous bookkeeping versus
    the synthesized DR/SR/DN/SV rounds. *)
let reduce_source =
  {|
constant n     = 16;
constant iters = 400;

region R = [1..n, 1..n];

var A : [0..n+1, 0..n+1] float;
var t : int;
var s1, s2, s3 : float;

procedure main();
begin
  [0..n+1, 0..n+1] A := Index1 * 0.5 + Index2 * 0.25;
  for t := 1 to iters do
    [R] s1 := +<< A;
    [R] s2 := max<< A;
    [R] s3 := min<< A;
    [R] A := A * 0.9999 + (s2 - s3 - s1 * 0.001) * 0.000001;
  end;
end;
|}

(** Reductions executed per simulated processor in one run. *)
let reduce_count ~iters = 3 * iters

let reduce_defines ~n ~iters =
  [ ("n", float_of_int n); ("iters", float_of_int iters) ]

(** Bisection-stress synthetic for the contention benchmark: a 1xP
    processor line where every iteration mixes eastward stencil traffic
    (four same-shaped member transfers the [cc] pass combines into one
    message per neighbor pair, plus a repeated read the [rr] pass
    removes) with a full reduction. Under a synthesized collective the
    dissemination/recursive-doubling rounds send between ranks far
    apart in the line, so on a mesh topology those multi-hop messages
    route through the {e same} eastward links the stencil messages use —
    the bisection links in the middle of the line see traffic from both
    sources and per-link occupancy serializes them. On the ideal
    topology the two kinds of traffic never interact, which is what
    makes this program's optimization ranking topology-sensitive.
    Scale with [contended_defines]; meant for a [1xP] mesh with [P]
    matching the [cols] define. *)
let contended_source =
  {|
constant n     = 48;
constant cols  = 8;
constant iters = 6;

region R = [1..n, 1..cols];

direction east = [0, 1];

var A, B, C, D, E, F : [0..n+1, 0..cols+1] float;
var t : int;
var s : float;

procedure main();
begin
  [0..n+1, 0..cols+1] B := Index1 * 0.5 + Index2;
  [0..n+1, 0..cols+1] C := Index1 * 0.25 - Index2;
  [0..n+1, 0..cols+1] D := Index1 + Index2 * 0.5;
  [0..n+1, 0..cols+1] E := Index1 - Index2 * 0.25;
  [0..n+1, 0..cols+1] F := 0.0;
  for t := 1 to iters do
    [R] A := B@east + C@east + D@east + E@east;
    [R] s := +<< A;
    [R] F := B@east * 0.5 + s * 0.000001;
    [R] B := A * 0.9999 + F * 0.0001;
    [R] C := F * 0.5 + B * 0.0001;
    [R] D := C * 0.5 + A * 0.0001;
    [R] E := D * 0.5 + F * 0.0001;
  end;
end;
|}

let contended_defines ~n ~iters =
  [ ("n", float_of_int n); ("iters", float_of_int iters) ]

let def : Bench_def.t =
  { Bench_def.name = "synth";
    description = "Two-node exposed-overhead microbenchmark (Figure 6)";
    source;
    bench_defines = defines ~doubles:512 ~busyn:2048 ~iters:200;
    test_defines = defines ~doubles:8 ~busyn:16 ~iters:5;
    bench_mesh = (1, 2);
    paper_grid = "2 nodes";
    paper_rows = [] }
