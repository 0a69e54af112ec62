(* Unit tests for the surface syntax: lexer, parser, pretty-printer. *)

open Logic
open Helpers
module Token = Lang.Token

let check_rule = Alcotest.check testable_rule
let check_lit = Alcotest.check testable_literal
let check_term = Alcotest.check testable_term

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tokens src =
  List.map (fun (t : Token.located) -> t.token) (Lang.Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check int) "token count" 11
    (List.length (tokens "p(X) :- q(X)."));
  Alcotest.(check bool) "ends with EOF" true
    (List.rev (tokens "p.") |> List.hd = Token.EOF)

let test_lexer_comments () =
  let t1 = tokens "p. % trailing comment\nq." in
  let t2 = tokens "p. // another\nq." in
  let t3 = tokens "p. /* block /* nested */ */ q." in
  let expected = tokens "p. q." in
  Alcotest.(check int) "percent" (List.length expected) (List.length t1);
  Alcotest.(check int) "slash-slash" (List.length expected) (List.length t2);
  Alcotest.(check int) "nested block" (List.length expected) (List.length t3)

let test_lexer_operators () =
  Alcotest.(check bool) "<= is one token" true
    (tokens "<=" = [ Token.LE; Token.EOF ]);
  Alcotest.(check bool) "<> is NEQ" true (tokens "<>" = [ Token.NEQ; Token.EOF ]);
  Alcotest.(check bool) "!= is NEQ" true (tokens "!=" = [ Token.NEQ; Token.EOF ]);
  Alcotest.(check bool) ">= then >" true
    (tokens ">= >" = [ Token.GE; Token.GT; Token.EOF ])

let test_lexer_idents () =
  Alcotest.(check bool) "lowercase is ident" true
    (tokens "foo_bar1" = [ Token.IDENT "foo_bar1"; Token.EOF ]);
  Alcotest.(check bool) "uppercase is var" true
    (tokens "Foo" = [ Token.VAR "Foo"; Token.EOF ]);
  Alcotest.(check bool) "underscore is var" true
    (tokens "_x" = [ Token.VAR "_x"; Token.EOF ]);
  Alcotest.(check bool) "keywords" true
    (tokens "component module object extends isa order prefer not neg mod"
    = Token.
        [ KW_COMPONENT; KW_COMPONENT; KW_COMPONENT; KW_EXTENDS; KW_EXTENDS;
          KW_ORDER; KW_PREFER; KW_NOT; KW_NOT; KW_MOD; EOF
        ])

let test_lexer_errors () =
  let check_raises src =
    match Lang.Lexer.tokenize src with
    | exception Lang.Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("lexer should reject " ^ src)
  in
  check_raises "p ? q";
  check_raises "! p";
  check_raises "/* unterminated";
  (* a bare ':' is the rule-name separator, not ':-' *)
  Alcotest.(check bool) "lone ':' is COLON" true
    (tokens "p :x" = [ Token.IDENT "p"; Token.COLON; Token.IDENT "x"; Token.EOF ])

let test_lexer_positions () =
  match Lang.Lexer.tokenize "p.\n  q." with
  | [ _; _; q; _; _ ] ->
    Alcotest.(check int) "line" 2 q.Token.pos.line;
    Alcotest.(check int) "col" 3 q.Token.pos.col
  | _ -> Alcotest.fail "unexpected token stream"

(* ------------------------------------------------------------------ *)
(* Terms and literals                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_term_precedence () =
  check_term "mul binds tighter" (term "1 + (2 * 3)") (term "1 + 2 * 3");
  check_term "left assoc minus"
    (Term.App ("-", [ Term.App ("-", [ Term.Int 1; Term.Int 2 ]); Term.Int 3 ]))
    (term "1 - 2 - 3");
  check_term "parens" (Term.App ("*", [ term "(1 + 2)"; Term.Int 3 ]))
    (term "(1 + 2) * 3")

let test_parse_unary_minus () =
  check_term "negative int" (Term.Int (-3)) (term "-3");
  check_term "unary minus on var" (Term.App ("-", [ Term.Var "X" ])) (term "-X")

let test_parse_function_terms () =
  check_term "nested" (Term.App ("f", [ Term.App ("g", [ Term.Sym "a" ]); Term.Var "X" ]))
    (term "f(g(a), X)")

let test_parse_literal_forms () =
  check_lit "plain" (Literal.pos (Atom.prop "p")) (lit "p");
  check_lit "minus negation" (Literal.neg_atom (Atom.prop "p")) (lit "-p");
  check_lit "tilde negation" (lit "-p(a)") (lit "~p(a)");
  check_lit "not keyword" (lit "-p(a)") (lit "not p(a)");
  check_lit "neg keyword" (lit "-p(a)") (lit "neg p(a)")

let test_parse_comparison_literal () =
  let l = lit "X > Y + 2" in
  Alcotest.(check string) "pred" ">" l.Literal.atom.Atom.pred;
  let l2 = lit "not X > 3" in
  Alcotest.(check bool) "negated comparison" true (Literal.is_negative l2)

let test_parse_rules () =
  let r = rule "p(X) :- q(X), -r(X), X > 2." in
  Alcotest.(check int) "body size" 3 (List.length (Rule.body r));
  Alcotest.(check bool) "fact" true (Rule.body (rule "p(a).") = []);
  Alcotest.(check int) "parse_rules" 3
    (List.length (rules "p. q :- p. -r :- q."))

let test_parse_errors () =
  let reject src =
    match Lang.Parser.parse_file src with
    | exception Lang.Parser.Error _ -> ()
    | exception Lang.Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("parser should reject " ^ src)
  in
  reject "p :- .";
  reject "p";
  reject "p :- q";
  reject "3.";
  reject "X.";
  reject "component { p. }";
  reject "component c extends { p. }";
  reject "order a b.";
  reject "p. trailing(";
  reject "component c { p. "

let test_parse_component_file () =
  let ast =
    Lang.Parser.parse_file
      {| top_rule.
         component a { p. q :- p. }
         component b extends a { -p. }
         order b < a.
       |}
  in
  let comps = Lang.Ast.components ast in
  Alcotest.(check (list string)) "components (bare rules become main)"
    [ "main"; "a"; "b" ]
    (List.map (fun (c : Lang.Ast.component) -> c.name) comps);
  Alcotest.(check (list (pair string string)))
    "order pairs deduplicated" [ ("b", "a") ]
    (Lang.Ast.order_pairs ast)

let test_parse_multi_parent () =
  let ast = Lang.Parser.parse_file "component a {} component b {} component c extends a, b {}" in
  Alcotest.(check (list (pair string string)))
    "extends pairs" [ ("c", "a"); ("c", "b") ]
    (Lang.Ast.order_pairs ast)

let test_duplicate_component () =
  let ast = Lang.Parser.parse_file "component a { p. } component a { q. }" in
  match Lang.Ast.components ast with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate components should be rejected"

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trips                                          *)
(* ------------------------------------------------------------------ *)

let test_rule_roundtrip () =
  List.iter
    (fun src ->
      let r = rule src in
      check_rule src r (rule (Rule.to_string r)))
    [ "p(X) :- q(X, f(Y)), -r(X), X > Y + 2.";
      "take_loan :- inflation(X), loan_rate(Y), X > Y + 2.";
      "-fly(X) :- ground_animal(X).";
      "p(a).";
      "p(1 + 2 * 3) :- q((1 + 2) * 3)."
    ]

let test_program_roundtrip () =
  let src =
    {| component c2 { bird(penguin). fly(X) :- bird(X). }
       component c1 extends c2 { -fly(X) :- ground_animal(X). } |}
  in
  let p = program src in
  let printed = Format.asprintf "%a" Ordered.Program.pp p in
  let p' = program printed in
  Alcotest.(check (list string)) "component names survive"
    (Array.to_list (Ordered.Program.component_names p))
    (Array.to_list (Ordered.Program.component_names p'));
  Alcotest.(check bool) "order survives" true
    (Ordered.Poset.lt (Ordered.Program.poset p')
       (Ordered.Program.component_id_exn p' "c1")
       (Ordered.Program.component_id_exn p' "c2"));
  List.iter2
    (fun r r' -> check_rule "rules survive" r r')
    (Ordered.Program.all_rules p)
    (Ordered.Program.all_rules p')

let suite =
  [ Alcotest.test_case "lexer basics" `Quick test_lexer_basic;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer identifiers and keywords" `Quick test_lexer_idents;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "term precedence" `Quick test_parse_term_precedence;
    Alcotest.test_case "unary minus" `Quick test_parse_unary_minus;
    Alcotest.test_case "function terms" `Quick test_parse_function_terms;
    Alcotest.test_case "literal forms" `Quick test_parse_literal_forms;
    Alcotest.test_case "comparison literals" `Quick test_parse_comparison_literal;
    Alcotest.test_case "rules" `Quick test_parse_rules;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "component files" `Quick test_parse_component_file;
    Alcotest.test_case "multiple parents" `Quick test_parse_multi_parent;
    Alcotest.test_case "duplicate component rejected" `Quick test_duplicate_component;
    Alcotest.test_case "rule print/parse round-trip" `Quick test_rule_roundtrip;
    Alcotest.test_case "program print/parse round-trip" `Quick
      test_program_roundtrip
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_at_in_identifiers () =
  (* '@' is allowed in identifier tails (version names like tax@2). *)
  let r = rule "rate@2(10)." in
  Alcotest.(check string) "predicate keeps @" "rate@2"
    (Rule.head r).Literal.atom.Atom.pred;
  let ast = Lang.Parser.parse_file "component tax@2 { p. }" in
  Alcotest.(check (list string)) "component name keeps @" [ "tax@2" ]
    (List.map (fun (c : Lang.Ast.component) -> c.name) (Lang.Ast.components ast))

let test_keyword_not_a_predicate () =
  (* keywords cannot head a rule *)
  match Lang.Parser.parse_file "order. " with
  | exception Lang.Parser.Error _ -> ()
  | _ -> Alcotest.fail "keyword as a bare rule must fail"

let test_comment_at_eof () =
  Alcotest.(check int) "trailing line comment" 1
    (List.length (rules "p. % the end"));
  Alcotest.(check int) "trailing block comment" 1
    (List.length (rules "p. /* done */"))

let test_quote_in_identifier () =
  let r = rule "p'(a')." in
  Alcotest.(check string) "primed predicate" "p'"
    (Rule.head r).Literal.atom.Atom.pred

let test_deeply_nested_parens () =
  let t = term "((((1 + 2))))" in
  Alcotest.check testable_term "parens collapse" (term "1 + 2") t

let edge_suite =
  [ Alcotest.test_case "@ in identifiers" `Quick test_at_in_identifiers;
    Alcotest.test_case "keywords are not predicates" `Quick
      test_keyword_not_a_predicate;
    Alcotest.test_case "comments at end of input" `Quick test_comment_at_eof;
    Alcotest.test_case "primes in identifiers" `Quick test_quote_in_identifier;
    Alcotest.test_case "nested parentheses" `Quick test_deeply_nested_parens
  ]

let suite = suite @ edge_suite
