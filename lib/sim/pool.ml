(** A domain pool for embarrassingly parallel task lists: the experiment
    grid runs each benchmark x row x library simulation in its own
    engine, spawning domains per call.

    Determinism: tasks are pure functions of their inputs plus disjoint
    per-task state, each result lands in its input slot, and the output
    order is the input order — so the parallel result is bit-identical
    to the serial one regardless of domain count or interleaving (see
    DESIGN.md). *)

let default_domains () = max 1 (Domain.recommended_domain_count ())

let parmap ?domains (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let d = min n (match domains with Some d -> max 1 d | None -> default_domains ()) in
  if d <= 1 then List.map f xs
  else begin
    let results : ('b, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <-
            Some (try Ok (f tasks.(i)) with e -> Error e);
          go ()
        end
      in
      go ()
    in
    let workers = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join workers;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
  end
