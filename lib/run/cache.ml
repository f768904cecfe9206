module Memo = Sim.Memo

(* A parsed program and, in its own entry, the geometry of each mesh it
   is planned on: a geometry is built over this entry's program, so an
   evicted and re-parsed program gets fresh ones. *)
type pentry = {
  prog : Zpl.Prog.t;
  geoms : (int * int, Sim.Engine.geometry) Memo.t;  (** (pr, pc) -> geometry *)
}

type counters = { hits : int; misses : int; evictions : int }

type t = {
  cap : int;
  arts : (string, Spec.artifact) Memo.t;  (** Spec.key -> compiled artifact *)
  progs : (string, pentry) Memo.t;  (** program_digest -> parsed prog *)
}

let create ?(capacity = 256) () =
  let cap = max 1 capacity in
  { cap;
    arts = Memo.create ~capacity:cap ();
    progs = Memo.create ~capacity:cap () }

let counters t =
  let hits, misses, evictions = Memo.counters t.arts in
  { hits; misses; evictions }

let length t = Memo.length t.arts

(* Compile outside every lock: concurrent misses on different specs
   proceed in parallel; a racing duplicate of the same spec is benign
   (both compiles are correct, the first insert wins and is what both
   callers get, so the physical-equality property holds across every
   engine built from this cache). *)
let find t (spec : Spec.t) : Spec.artifact * bool =
  Memo.find_or_build t.arts (Spec.key spec) (fun () ->
      let pe, _ =
        Memo.find_or_build t.progs (Spec.program_digest spec) (fun () ->
            { prog = Spec.parse spec; geoms = Memo.create ~capacity:t.cap () })
      in
      let pr, pc = spec.Spec.mesh in
      let geometry, _ =
        Memo.find_or_build pe.geoms (pr, pc) (fun () ->
            Sim.Engine.geometry ~pr ~pc pe.prog)
      in
      Spec.build ~prog:pe.prog ~geometry spec)

let artifact t spec = fst (find t spec)
let run t spec = Sim.Engine.run (Spec.engine_of (artifact t spec))
