module Memo = Sim.Memo

type item = { label : string; spec : Spec.t }

type row = {
  r_label : string;
  r_hit : bool;
  r_memo : bool;
  r_time : float;
  r_static : int;
  r_dynamic : int;
  r_wall : float;
}

type summary = {
  rows : row list;
  hits : int;
  misses : int;
  memo_hits : int;
  counters : Cache.counters;
  pool_fresh : int;
  pool_reused : int;
  wall : float;
}

(* The memoized part of a row: the numbers the simulation determines.
   Keyed by Spec.key plus the limit — the runtime knob that can change
   what a run computes (by truncating it). *)
type memo_row = { m_time : float; m_static : int; m_dynamic : int }

(* The memo is unbounded (capacity [max_int]): a re-swept grid of any
   size is answered without simulating. *)
type t = { cache : Cache.t; memo : (string, memo_row) Memo.t }

let create ?cache () =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  { cache; memo = Memo.create ~capacity:max_int () }

let cache t = t.cache
let reset_memo t = Memo.clear t.memo

let memo_key (spec : Spec.t) =
  Spec.key spec ^ ":" ^ string_of_int spec.Spec.limit

(* Per-worker render buffer, reused for every row the domain emits:
   the steady-state emit path renders into an already-grown buffer and
   only the byte write happens under the emit lock. One buffer per pool
   domain (not one shared) so rendering needs no synchronization. *)
let row_buf : Buffer.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Buffer.create 256)

let render_row (b : Buffer.t) (r : row) =
  Buffer.clear b;
  Buffer.add_string b "\n    {";
  Json.add_key b "label";
  Json.add_str b r.r_label;
  Buffer.add_string b ", ";
  Json.add_key b "hit";
  Json.add_bool b r.r_hit;
  Buffer.add_string b ", ";
  Json.add_key b "memo";
  Json.add_bool b r.r_memo;
  Buffer.add_string b ", ";
  Json.add_key b "sim_time";
  Json.add_exact b r.r_time;
  Buffer.add_string b ", ";
  Json.add_key b "static";
  Json.add_int b r.r_static;
  Buffer.add_string b ", ";
  Json.add_key b "dynamic";
  Json.add_int b r.r_dynamic;
  Buffer.add_string b ", ";
  Json.add_key b "wall_sec";
  Json.add_fixed b 6 r.r_wall;
  Buffer.add_char b '}'

let run ?domains ?out (t : t) (items : item list) : summary =
  let emit_lock = Mutex.create () in
  let emitted = ref 0 in
  (match out with
  | Some oc ->
      Printf.fprintf oc "{\n  \"sweep\": [";
      flush oc
  | None -> ());
  let t0 = Unix.gettimeofday () in
  let pool_fresh = ref 0 and pool_reused = ref 0 in
  let rows =
    Sim.Pool.parmap ?domains
      (fun (it : item) ->
        let w0 = Unix.gettimeofday () in
        let cache_hit = ref false in
        let m, memo_hit =
          Memo.find_or_build t.memo (memo_key it.spec) (fun () ->
              let art, hit = Cache.find t.cache it.spec in
              cache_hit := hit;
              let res = Sim.Engine.run (Spec.engine_of art) in
              let fresh, reused =
                Sim.Engine.pool_counts res.Sim.Engine.engine
              in
              Mutex.lock emit_lock;
              pool_fresh := !pool_fresh + fresh;
              pool_reused := !pool_reused + reused;
              Mutex.unlock emit_lock;
              { m_time = res.Sim.Engine.time;
                m_static = Ir.Count.static_count art.Spec.a_ir;
                m_dynamic = Sim.Stats.dynamic_count res.Sim.Engine.stats })
        in
        let r =
          { r_label = it.label;
            r_hit = memo_hit || !cache_hit;
            r_memo = memo_hit;
            r_time = m.m_time;
            r_static = m.m_static;
            r_dynamic = m.m_dynamic;
            r_wall = Unix.gettimeofday () -. w0 }
        in
        (match out with
        | Some oc ->
            let b = Domain.DLS.get row_buf in
            render_row b r;
            Mutex.lock emit_lock;
            if !emitted > 0 then output_char oc ',';
            Buffer.output_buffer oc b;
            incr emitted;
            flush oc;
            Mutex.unlock emit_lock
        | None -> ());
        r)
      items
  in
  let wall = Unix.gettimeofday () -. t0 in
  let hits = List.length (List.filter (fun r -> r.r_hit) rows) in
  let misses = List.length rows - hits in
  let memo_hits = List.length (List.filter (fun r -> r.r_memo) rows) in
  let counters = Cache.counters t.cache in
  (match out with
  | Some oc ->
      let n = List.length rows in
      let b = Domain.DLS.get row_buf in
      Buffer.clear b;
      Buffer.add_string b "\n  ],";
      let ifield k v =
        Buffer.add_string b "\n  ";
        Json.add_key b k;
        Json.add_int b v;
        Buffer.add_char b ','
      in
      ifield "specs" n;
      ifield "hits" hits;
      ifield "misses" misses;
      ifield "memo_hits" memo_hits;
      ifield "evictions" counters.Cache.evictions;
      ifield "pool_fresh" !pool_fresh;
      ifield "pool_reused" !pool_reused;
      (* GC stamp: this domain's cumulative allocation at close time, so
         artifact consumers can relate sweep throughput to GC pressure
         (same keys as the BENCH_*.json headers). *)
      let gc = Gc.quick_stat () in
      Buffer.add_string b "\n  ";
      Json.add_key b "gc_minor_words";
      Json.add_num b gc.Gc.minor_words;
      Buffer.add_string b ",\n  ";
      Json.add_key b "gc_promoted_words";
      Json.add_num b gc.Gc.promoted_words;
      Buffer.add_string b ",\n  ";
      Json.add_key b "wall_sec";
      Json.add_fixed b 6 wall;
      Buffer.add_string b ",\n  ";
      Json.add_key b "specs_per_sec";
      Json.add_fixed b 3 (if wall > 0.0 then float_of_int n /. wall else 0.0);
      Buffer.add_string b "\n}\n";
      Buffer.output_buffer oc b;
      flush oc
  | None -> ());
  { rows;
    hits;
    misses;
    memo_hits;
    counters;
    pool_fresh = !pool_fresh;
    pool_reused = !pool_reused;
    wall }
