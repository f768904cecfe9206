type 'v entry = { v : 'v; mutable last_use : int }

type ('k, 'v) t = {
  lock : Mutex.t;
  cap : int;
  tbl : ('k, 'v entry) Hashtbl.t;
  mutable tick : int;  (** LRU clock, bumped per use *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity () =
  { lock = Mutex.create ();
    cap = max 1 capacity;
    tbl = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let use t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick;
  e.v

(* Linear-scan LRU eviction: bounded tables hold tens or hundreds of
   entries, so a scan per insert-at-capacity is cheaper than maintaining
   an intrusive list, and it keeps the locked sections trivially
   correct. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, u) when e.last_use >= u -> ()
      | _ -> victim := Some (k, e.last_use))
    t.tbl;
  match !victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1

let find_or_build t k build =
  let cached =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl k with
        | Some e ->
            t.hits <- t.hits + 1;
            Some (use t e)
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  match cached with
  | Some v -> (v, true)
  | None ->
      let v = build () in
      Mutex.protect t.lock (fun () ->
          match Hashtbl.find_opt t.tbl k with
          | Some first -> (use t first, false)
          | None ->
              if Hashtbl.length t.tbl >= t.cap then evict_lru t;
              t.tick <- t.tick + 1;
              Hashtbl.replace t.tbl k { v; last_use = t.tick };
              (v, false))

let counters t =
  Mutex.protect t.lock (fun () -> (t.hits, t.misses, t.evictions))

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)
let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.tbl)
