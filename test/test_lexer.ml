(** Lexer unit tests: token classification, compound tokens, comments,
    locations and error reporting. *)

open Commopt.Zpl
open Lexer

let toks src = List.map (fun l -> l.tok) (tokenize src)

let tok = Alcotest.testable pp_token equal_token

let test_idents_keywords () =
  Alcotest.(check (list tok))
    "mixed"
    [ KW "var"; IDENT "Foo"; COLON; KW "float"; SEMI; EOF ]
    (toks "var Foo : float;")

let test_numbers () =
  Alcotest.(check (list tok))
    "ints and floats"
    [ INT 42; FLOAT 3.5; FLOAT 0.25; FLOAT 1e3; FLOAT 2.0; EOF ]
    (toks "42 3.5 0.25 1e3 2.")

let test_range_vs_float () =
  (* '1..4' must lex as INT DOTDOT INT, not FLOAT *)
  Alcotest.(check (list tok))
    "range" [ INT 1; DOTDOT; INT 4; EOF ] (toks "1..4")

let test_operators () =
  Alcotest.(check (list tok))
    "ops"
    [ PLUS; MINUS; STAR; SLASH; CARET; LT; LE; GT; GE; EQ; NE; ASSIGN; AT; EOF ]
    (toks "+ - * / ^ < <= > >= = != := @")

let test_reduce_tokens () =
  Alcotest.(check (list tok))
    "+<< and <<"
    [ RED Ast.RSum; IDENT "max"; SHIFTL; RED Ast.RProd; EOF ]
    (toks "+<< max<< *<<")

let test_comments () =
  Alcotest.(check (list tok))
    "line comments"
    [ INT 1; INT 2; EOF ]
    (toks "1 -- a comment\n2 // another\n-- trailing")

let test_locations () =
  let ls = tokenize "ab\n  cd" in
  let second = List.nth ls 1 in
  Alcotest.(check int) "line" 2 second.loc.Loc.line;
  Alcotest.(check int) "col" 3 second.loc.Loc.col

let test_bad_char () =
  Alcotest.check_raises "unexpected char"
    (Loc.Error ({ Loc.line = 1; col = 1 }, "unexpected character '$'"))
    (fun () -> ignore (tokenize "$"))

let test_bang_alone () =
  (match tokenize "!x" with
  | _ -> Alcotest.fail "should have raised"
  | exception Loc.Error (_, msg) ->
      Alcotest.(check string) "msg" "unexpected '!'" msg)

(* Dumps print float literals the lexer reads back to the same bits, as
   floats, in the fewest digits. *)
let test_pretty_floats () =
  List.iter
    (fun (f, want) ->
      let text = Pretty.float_to_string f in
      Alcotest.(check string) want want text;
      match toks text with
      | [ FLOAT g; EOF ] ->
          Alcotest.(check int64) text (Int64.bits_of_float f)
            (Int64.bits_of_float g)
      | _ -> Alcotest.failf "%s does not lex as one float" text)
    [ (2.0, "2.0"); (0.1234567891, "0.1234567891"); (0.1 +. 0.2,
      "0.30000000000000004"); (1e20, "1e+20"); (1e-5, "1e-05");
      (128.0, "128.0"); (5e-324, "5e-324"); (max_float,
      "1.7976931348623157e+308") ]

let test_case_insensitive_keywords () =
  Alcotest.(check (list tok))
    "BEGIN = begin" [ KW "begin"; KW "end"; EOF ] (toks "BEGIN End")

let () =
  Alcotest.run "lexer"
    [ ( "tokens",
        [ Alcotest.test_case "idents & keywords" `Quick test_idents_keywords;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "range vs float" `Quick test_range_vs_float;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "reduction tokens" `Quick test_reduce_tokens;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "locations" `Quick test_locations;
          Alcotest.test_case "bad char" `Quick test_bad_char;
          Alcotest.test_case "lone bang" `Quick test_bang_alone;
          Alcotest.test_case "keyword case" `Quick test_case_insensitive_keywords;
          Alcotest.test_case "pretty floats read back" `Quick
            test_pretty_floats
        ] ) ]
