(** Source locations and located errors for the mini-ZPL front end. *)

type t = { line : int; col : int } [@@deriving show, eq]

let dummy = { line = 0; col = 0 }

let pp ppf { line; col } = Fmt.pf ppf "%d:%d" line col

(** An error position, as printed in diagnostics. Front-end errors (the
    lexer, parser and checker) point at source text by line:col; IR-level
    diagnostics (schedcheck) point at the stable instruction index of the
    final communication IR, the [ir#N] of the [N:]-prefixed lines of
    [zplc dump --stage ir]. Both render through {!format_error}, so every
    diagnostic in the system reads "<position>: <message>". *)
type pos = Src of t | Instr of int

let pp_pos ppf = function
  | Src l -> pp ppf l
  | Instr i -> Fmt.pf ppf "ir#%d" i

(** The one diagnostic shape: "<position>: <message>". *)
let format_error pos msg = Fmt.str "%a: %s" pp_pos pos msg

(** Raised by the lexer, parser and checker on malformed input. *)
exception Error of t * string

let fail loc fmt = Fmt.kstr (fun s -> raise (Error (loc, s))) fmt

(** [guard f] runs [f ()] and converts a located error into [Result.Error]. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Error (loc, msg) -> Result.Error (format_error (Src loc) msg)
