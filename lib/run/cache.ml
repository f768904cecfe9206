type entry = { art : Spec.artifact; mutable last_use : int }
type pentry = { prog : Zpl.Prog.t; mutable p_last_use : int }

type gentry = {
  g_prog : Zpl.Prog.t;  (** the program it was built over *)
  geom : Sim.Engine.geometry;
  mutable g_last_use : int;
}

type counters = { hits : int; misses : int; evictions : int }

type t = {
  lock : Mutex.t;
  cap : int;
  tbl : (string, entry) Hashtbl.t;  (** Spec.key -> compiled artifact *)
  progs : (string, pentry) Hashtbl.t;  (** program_digest -> parsed prog *)
  geoms : (string * int * int, gentry) Hashtbl.t;
      (** (program_digest, pr, pc) -> the plans' shared geometry *)
  mutable tick : int;  (** LRU clock, bumped per lookup *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 256) () =
  { lock = Mutex.create ();
    cap = max 1 capacity;
    tbl = Hashtbl.create 64;
    progs = Hashtbl.create 64;
    geoms = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let global = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counters t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions })

let capacity t = t.cap
let length t = locked t (fun () -> Hashtbl.length t.tbl)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      Hashtbl.reset t.progs;
      Hashtbl.reset t.geoms)

(* Linear-scan LRU eviction: capacities are in the tens or hundreds, so
   a scan per insert-at-capacity is cheaper than maintaining an intrusive
   list, and it keeps the locked sections trivially correct. *)
let evict_lru (type k e) (tbl : (k, e) Hashtbl.t) (use : e -> int) =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, u) when use e >= u -> ()
      | _ -> victim := Some (k, use e))
    tbl;
  match !victim with None -> () | Some (k, _) -> Hashtbl.remove tbl k

(* The geometry of (program, mesh): found by digest and mesh, and used
   only if it was built over this very program (an evicted and re-parsed
   program gets a fresh one). Built outside the lock; a racing duplicate
   yields to the first insert. *)
let geometry t pdigest ~pr ~pc (prog : Zpl.Prog.t) : Sim.Engine.geometry =
  let gkey = (pdigest, pr, pc) in
  let cached () =
    match Hashtbl.find_opt t.geoms gkey with
    | Some ge when ge.g_prog == prog ->
        ge.g_last_use <- t.tick;
        Some ge.geom
    | _ -> None
  in
  match locked t cached with
  | Some g -> g
  | None ->
      let g = Sim.Engine.geometry ~pr ~pc prog in
      locked t (fun () ->
          match cached () with
          | Some first -> first
          | None ->
              if
                (not (Hashtbl.mem t.geoms gkey))
                && Hashtbl.length t.geoms >= t.cap
              then evict_lru t.geoms (fun ge -> ge.g_last_use);
              Hashtbl.replace t.geoms gkey
                { g_prog = prog; geom = g; g_last_use = t.tick };
              g)

let find t (spec : Spec.t) : Spec.artifact * bool =
  let key = Spec.key spec in
  let cached =
    locked t (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
            e.last_use <- t.tick;
            t.hits <- t.hits + 1;
            Some e.art
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  match cached with
  | Some art -> (art, true)
  | None ->
      (* compile outside the lock: concurrent misses on different specs
         proceed in parallel; a racing duplicate of the same spec is
         benign (both compiles are correct, the first insert wins). The
         program is published to the memo before anything is built over
         it, and a racing duplicate parse yields to the memo's, so every
         geometry of one digest is built over one program. *)
      let pdigest = Spec.program_digest spec in
      let memo_prog () =
        match Hashtbl.find_opt t.progs pdigest with
        | Some pe ->
            pe.p_last_use <- t.tick;
            Some pe.prog
        | None -> None
      in
      let prog =
        match locked t memo_prog with
        | Some p -> p
        | None ->
            let p = Spec.parse spec in
            locked t (fun () ->
                match memo_prog () with
                | Some first -> first
                | None ->
                    if Hashtbl.length t.progs >= t.cap then
                      evict_lru t.progs (fun pe -> pe.p_last_use);
                    Hashtbl.replace t.progs pdigest
                      { prog = p; p_last_use = t.tick };
                    p)
      in
      let art = Spec.build ~prog ~geometry:(geometry t pdigest) spec in
      locked t (fun () ->
          match Hashtbl.find_opt t.tbl key with
          | Some e ->
              (* another thread compiled the same spec first; share its
                 artifact so the physical-equality property holds across
                 every engine built from this cache *)
              e.last_use <- t.tick;
              (e.art, false)
          | None ->
              if Hashtbl.length t.tbl >= t.cap then begin
                evict_lru t.tbl (fun e -> e.last_use);
                t.evictions <- t.evictions + 1
              end;
              Hashtbl.replace t.tbl key { art; last_use = t.tick };
              (art, false))

let artifact t spec = fst (find t spec)
let engine t spec = Spec.engine_of (artifact t spec)
let run t spec = Sim.Engine.run (engine t spec)
