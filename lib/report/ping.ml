(** Figure 6 driver: exposed software overhead per communication primitive
    set, measured exactly as the paper's synthetic benchmark does — a
    message bounces between two nodes with busy loops big enough to hide
    the wire transmission; the busy-only variant's time is subtracted and
    the remainder divided by the iteration count. *)

type point = { doubles : int; overhead : float (* seconds *) }

type curve = {
  machine : Machine.Params.t;
  lib : Machine.Library.t;
  points : point list;
}

let default_sizes = [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]

(** Busy-loop rows needed so the busy statements exceed ~1.5x the full
    transmission time of a [doubles]-sized message, including the remote
    sender's CPU share — "the loop performs enough computation to hide the
    transmission time". *)
let busyn_for (machine : Machine.Params.t) (lib : Machine.Library.t) doubles =
  let c = lib.Machine.Library.costs in
  let bytes = float_of_int (doubles * 8) in
  let transmission =
    c.Machine.Params.sr_over
    +. (bytes *. c.Machine.Params.send_byte)
    +. machine.Machine.Params.wire_latency
    +. c.Machine.Params.msg_latency +. c.Machine.Params.token_latency
    +. (bytes /. machine.Machine.Params.bandwidth)
  in
  let per_row = 9.0 *. machine.Machine.Params.sec_per_flop in
  max 16 (int_of_float (Float.ceil (1.5 *. transmission /. per_row)))

(** All five curves of Figure 6: one comm spec and its busy twin per
    (machine, library, size), all answered by one {!Run.Sweep.run} on a
    fresh service over the default pool, then regrouped into curves. *)
let figure6 ?(sizes = default_sizes) ?(iters = 50) () : curve list =
  let targets =
    List.map (fun l -> (Machine.Paragon.machine, l)) Machine.Paragon.libraries
    @ List.map (fun l -> (Machine.T3d.machine, l)) Machine.T3d.libraries
  in
  let items =
    List.concat_map
      (fun (machine, lib) ->
        List.concat_map
          (fun doubles ->
            let busyn = busyn_for machine lib doubles in
            let defines = Programs.Synthetic.defines ~doubles ~busyn ~iters in
            List.map
              (fun source ->
                { Run.Sweep.label =
                    lib.Machine.Library.costs.Machine.Params.lib_name;
                  spec =
                    Run.Spec.(
                      default source |> with_defines defines
                      |> with_target machine lib |> with_mesh 1 2) })
              [ Programs.Synthetic.source; Programs.Synthetic.busy_source ])
          sizes)
      targets
  in
  let times =
    Array.of_list
      (List.map
         (fun (r : Run.Sweep.row) -> r.r_time)
         (Run.Sweep.run (Run.Sweep.create ()) items).rows)
  in
  let nsizes = List.length sizes in
  List.mapi
    (fun ti (machine, lib) ->
      let point si doubles =
        (* rows come back in input order: the comm run, then its twin *)
        let k = 2 * ((ti * nsizes) + si) in
        (* each iteration pays one send and one receive per processor,
           i.e. exactly one transfer's two-sided software overhead *)
        { doubles;
          overhead = (times.(k) -. times.(k + 1)) /. float_of_int iters }
      in
      { machine; lib; points = List.mapi point sizes })
    targets

(** The message size at which overhead stops being flat: the first size
    whose overhead exceeds twice the smallest-message overhead — the
    "knee" the paper places at 512 doubles (4 KB). *)
let knee (c : curve) : int option =
  match c.points with
  | [] -> None
  | first :: _ ->
      List.find_map
        (fun p ->
          if p.overhead > 2.0 *. first.overhead then Some p.doubles else None)
        c.points
