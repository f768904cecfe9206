exception Exceeded of int

let default = 1 lsl 30

let cells (r : Zpl.Region.t) =
  Array.fold_left
    (fun acc { Zpl.Region.lo; hi } ->
      acc *. Float.max 0. (float_of_int hi -. float_of_int lo +. 1.))
    1. r

let check_alloc ~limit (arrays : (Zpl.Prog.array_info * float) array) =
  let total = Array.fold_left (fun acc (_, n) -> acc +. n) 0. arrays in
  if total > float_of_int limit then begin
    let (big : Zpl.Prog.array_info), n =
      Array.fold_left
        (fun ((_, m) as best) ((_, n) as a) -> if n > m then a else best)
        arrays.(0) arrays
    in
    Fmt.failwith
      "the run would allocate %.0f array cells, over its work budget of %d; \
       the largest array is %s %s (%.0f cells)"
      total limit big.a_name
      (Zpl.Region.to_string big.a_region)
      n
  end
