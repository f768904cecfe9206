(** Minimal JSON building blocks, shared by every artifact writer (the
    sweep's incremental grid artifact and the bench harness's
    [BENCH_*.json] files). Escaping covers the two structurally
    dangerous characters — the double quote and the backslash — plus
    control characters, which is exactly the set RFC 8259 requires for
    string contents.

    Every writer is [Buffer.t]-based so a hot emit path can render into
    one reused buffer instead of allocating intermediate strings per
    row. *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let add_str b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let add_key b k =
  add_str b k;
  Buffer.add_string b ": "

let add_bool b v = Buffer.add_string b (if v then "true" else "false")
let add_int b i = Printf.bprintf b "%d" i

let add_num b v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.bprintf b "%.0f" v
  else Printf.bprintf b "%.4f" v

let add_exact b v = Printf.bprintf b "%.17g" v
let add_fixed b digits v = Printf.bprintf b "%.*f" digits v
