(* Bulk EDB loading and dumping. *)

open Logic
open Helpers

let test_parse_cells () =
  match Edb.facts_of_string ~rel:"r" "42\t-7\talice\ta1b\n" with
  | Ok [ fact ] -> (
    match (Rule.head fact).Literal.atom.Atom.args with
    | [ a; b; c; d ] ->
      Alcotest.check testable_term "int" (Term.Int 42) a;
      Alcotest.check testable_term "negative int" (Term.Int (-7)) b;
      Alcotest.check testable_term "symbol" (Term.Sym "alice") c;
      Alcotest.check testable_term "symbol with digits" (Term.Sym "a1b") d
    | _ -> Alcotest.fail "four cells expected")
  | Ok _ -> Alcotest.fail "one fact expected"
  | Error e -> Alcotest.fail e

let test_facts_of_string () =
  match Edb.facts_of_string ~rel:"parent" "a\tb\n# a comment\n\nb\tc\n" with
  | Error e -> Alcotest.fail e
  | Ok facts ->
    Alcotest.(check (list testable_rule)) "two facts"
      [ rule "parent(a, b)."; rule "parent(b, c)." ]
      facts

let test_facts_custom_separator () =
  match Edb.facts_of_string ~sep:',' ~rel:"salary" "alice, 100\nbob, 90\n" with
  | Error e -> Alcotest.fail e
  | Ok facts ->
    Alcotest.(check (list testable_rule)) "csv"
      [ rule "salary(alice, 100)."; rule "salary(bob, 90)." ]
      facts

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_arity_mismatch () =
  match Edb.facts_of_string ~rel:"p" "a\tb\nc\n" with
  | Error msg ->
    Alcotest.(check bool) "line cited" true (contains msg "line 2")
  | Ok _ -> Alcotest.fail "arity mismatch must be reported"

let test_dump_relation () =
  let m = interp [ "anc(a, b)"; "anc(a, c)"; "-anc(b, a)"; "other(x)" ] in
  Alcotest.(check string) "dump" "a\tb\na\tc\n"
    (Edb.dump_relation ~pred:"anc" m);
  Alcotest.(check string) "empty dump" "" (Edb.dump_relation ~pred:"nope" m);
  Alcotest.(check (list (pair string int))) "relations"
    [ ("anc", 2); ("other", 1) ]
    (Edb.relations m)

let test_end_to_end_with_program () =
  let facts =
    Result.get_ok (Edb.facts_of_string ~rel:"parent" "a\tb\nb\tc\n")
  in
  let prog =
    program
      "component main { anc(X, Y) :- parent(X, Y). anc(X, Y) :- parent(X, Z), anc(Z, Y). }"
  in
  let prog = Ordered.Program.add_rules prog 0 facts in
  let g = ground_at prog "main" in
  Alcotest.(check int) "three ancestor pairs" 3
    (List.length (Ordered.Query.answers g (lit "anc(X, Y)")))

let suite =
  [ Alcotest.test_case "cell parsing" `Quick test_parse_cells;
    Alcotest.test_case "document parsing" `Quick test_facts_of_string;
    Alcotest.test_case "custom separator" `Quick test_facts_custom_separator;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "relation dump" `Quick test_dump_relation;
    Alcotest.test_case "end-to-end with a program" `Quick
      test_end_to_end_with_program
  ]

let test_file_not_found () =
  match Edb.facts_of_file ~rel:"p" "/nonexistent/file.tsv" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an error"

let test_empty_document () =
  match Edb.facts_of_string ~rel:"p" "\n\n# only comments\n" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected no facts"
  | Error e -> Alcotest.fail e

let suite =
  suite
  @ [ Alcotest.test_case "file not found" `Quick test_file_not_found;
      Alcotest.test_case "empty document" `Quick test_empty_document
    ]
