(* Unit tests for the logic substrate: terms, atoms, literals,
   substitutions, unification, interpretations, Herbrand machinery. *)

open Logic
open Helpers

let check_term = Alcotest.check testable_term
let check_lit = Alcotest.check testable_literal

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let test_term_vars () =
  Alcotest.(check (list string))
    "vars in first-occurrence order" [ "X"; "Y" ]
    (Term.vars (term "f(X, g(Y, X), 3)"));
  Alcotest.(check (list string)) "ground term has no vars" []
    (Term.vars (term "f(a, 3)"))

let test_term_ground () =
  Alcotest.(check bool) "ground" true (Term.is_ground (term "f(a, g(b), 3)"));
  Alcotest.(check bool) "non-ground" false (Term.is_ground (term "f(a, X)"))

let test_term_size_depth () =
  Alcotest.(check int) "size" 5 (Term.size (term "f(a, g(b), 3)"));
  Alcotest.(check int) "depth constant" 0 (Term.depth (term "a"));
  Alcotest.(check int) "depth nested" 3 (Term.depth (term "f(g(h(a)))"))

let test_term_compare_total () =
  let ts = [ term "X"; term "3"; term "a"; term "f(a)"; term "f(a, b)" ] in
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 ->
          let c12 = Term.compare t1 t2 and c21 = Term.compare t2 t1 in
          Alcotest.(check bool) "antisymmetric" true (compare c12 0 = compare 0 c21))
        ts)
    ts;
  Alcotest.(check bool) "equal reflexive" true (Term.equal (term "f(X, a)") (term "f(X, a)"))

let test_term_rename () =
  check_term "rename" (term "f(X1, g(Y1))")
    (Term.rename (fun v -> v ^ "1") (term "f(X, g(Y))"))

let test_term_pp_roundtrip () =
  List.iter
    (fun s ->
      let t = term s in
      check_term s t (term (Term.to_string t)))
    [ "f(X, g(Y, a), 3)"; "a"; "X"; "42" ]

(* ------------------------------------------------------------------ *)
(* Atoms and literals                                                  *)
(* ------------------------------------------------------------------ *)

let test_atom_basic () =
  let a = Atom.make "p" [ term "X"; term "a" ] in
  Alcotest.(check int) "arity" 2 (Atom.arity a);
  Alcotest.(check (list string)) "vars" [ "X" ] (Atom.vars a);
  Alcotest.(check string) "pp" "p(X, a)" (Atom.to_string a);
  Alcotest.(check string) "prop pp" "q" (Atom.to_string (Atom.prop "q"))

let test_atom_infix_pp () =
  Alcotest.(check string) "comparison prints infix" "X > Y + 2"
    (Atom.to_string (Atom.make ">" [ term "X"; term "Y + 2" ]))

let test_literal_complement () =
  let l = lit "p(a)" in
  check_lit "double negation" l (Literal.neg (Literal.neg l));
  check_lit "negation flips the sign" (lit "-p(a)") (Literal.neg l)

(* ------------------------------------------------------------------ *)
(* Substitutions                                                       *)
(* ------------------------------------------------------------------ *)

let test_subst_apply () =
  let s = Subst.of_list [ ("X", term "a"); ("Y", term "f(X)") ] in
  check_term "apply" (term "g(a, f(a))") (Subst.apply_term s (term "g(X, Y)"))

let test_subst_bind_conflict () =
  let s = Subst.singleton "X" (term "a") in
  Alcotest.check_raises "conflicting bind"
    (Invalid_argument "Subst.bind: X already bound") (fun () ->
      ignore (Subst.bind "X" (term "b") s));
  (* Rebinding to the same term is fine. *)
  ignore (Subst.bind "X" (term "a") s)

(* ------------------------------------------------------------------ *)
(* Unification                                                         *)
(* ------------------------------------------------------------------ *)

(* Terms unify as the arguments of one unary atom. *)
let unify t1 t2 = Unify.atom (Atom.make "w" [ t1 ]) (Atom.make "w" [ t2 ])

let test_unify_basic () =
  match unify (term "f(X, b)") (term "f(a, Y)") with
  | None -> Alcotest.fail "should unify"
  | Some s ->
    check_term "X" (term "a") (Subst.apply_term s (term "X"));
    check_term "Y" (term "b") (Subst.apply_term s (term "Y"))

let test_unify_occurs_check () =
  Alcotest.(check bool) "occurs check" true
    (unify (term "X") (term "f(X)") = None)

let test_unify_clash () =
  Alcotest.(check bool) "constant clash" true
    (unify (term "f(a)") (term "f(b)") = None);
  Alcotest.(check bool) "arity clash" true
    (unify (term "f(a)") (term "f(a, b)") = None);
  Alcotest.(check bool) "int vs sym" true (unify (term "3") (term "a") = None)

let test_unify_shared_var () =
  match unify (term "f(X, X)") (term "f(a, Y)") with
  | None -> Alcotest.fail "should unify"
  | Some s -> check_term "Y via X" (term "a") (Subst.apply_term s (term "Y"))

let test_match_one_way () =
  (match Unify.match_literal (lit "p(f(X))") (lit "p(f(g(Y)))") with
  | None -> Alcotest.fail "should match"
  | Some s -> check_term "X bound" (term "g(Y)") (Subst.apply_term s (term "X")));
  Alcotest.(check bool) "subject vars are rigid" true
    (Unify.match_literal (lit "p(f(a))") (lit "p(f(X))") = None);
  Alcotest.(check bool) "polarities must agree" true
    (Unify.match_literal (lit "p(X)") (lit "-p(a)") = None)

(* ------------------------------------------------------------------ *)
(* Interpretations                                                     *)
(* ------------------------------------------------------------------ *)

let test_interp_values () =
  let i = interp [ "p(a)"; "-q(b)" ] in
  Alcotest.check testable_value "true" Interp.True (Interp.value_lit i (lit "p(a)"));
  Alcotest.check testable_value "neg of true" Interp.False
    (Interp.value_lit i (lit "-p(a)"));
  Alcotest.check testable_value "false" Interp.False
    (Interp.value_lit i (lit "q(b)"));
  Alcotest.check testable_value "undefined" Interp.Undefined
    (Interp.value_lit i (lit "r"))

let test_interp_consistency () =
  Alcotest.check_raises "inconsistent add"
    (Invalid_argument "Interp.set: inconsistent assignment to p(a)")
    (fun () -> ignore (Interp.set (interp [ "p(a)" ]) (lit "p(a)").atom false))

let test_interp_set_ops () =
  let i = interp [ "p"; "-q" ] and j = interp [ "p"; "-q"; "r" ] in
  Alcotest.(check bool) "subset" true (Interp.subset i j);
  Alcotest.(check bool) "not superset" false (Interp.subset j i);
  (match Interp.union i (interp [ "r" ]) with
  | Some u -> Alcotest.check testable_interp "union" j u
  | None -> Alcotest.fail "union should exist");
  Alcotest.(check bool) "union conflict" true
    (Interp.union i (interp [ "q" ]) = None)

let test_interp_conj () =
  let i = interp [ "p"; "-q" ] in
  Alcotest.check testable_value "conj true" Interp.True
    (Interp.value_conj i [ lit "p"; lit "-q" ]);
  Alcotest.check testable_value "conj false beats undefined" Interp.False
    (Interp.value_conj i [ lit "q"; lit "r" ]);
  Alcotest.check testable_value "conj undefined" Interp.Undefined
    (Interp.value_conj i [ lit "p"; lit "r" ]);
  Alcotest.check testable_value "empty conj is true" Interp.True
    (Interp.value_conj i [])

let test_interp_total_undef () =
  let base = [ Atom.prop "p"; Atom.prop "q"; Atom.prop "r" ] in
  let i = interp [ "p"; "-q" ] in
  Alcotest.(check bool) "not total" false (Interp.is_total i ~base);
  Alcotest.check (Alcotest.list testable_atom) "undefined atoms"
    [ Atom.prop "r" ]
    (Interp.undefined_atoms i ~base);
  Alcotest.(check bool) "total" true
    (Interp.is_total (Interp.set i (Atom.prop "r") false) ~base)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_rule_classification () =
  Alcotest.(check bool) "fact" true (Rule.body (rule "p(a).") = []);
  Alcotest.(check bool) "positive" true (Rule.is_positive (rule "p :- q, r."));
  Alcotest.(check bool) "seminegative" true
    (Rule.is_seminegative (rule "p :- -q."));
  Alcotest.(check bool) "seminegative is not positive" false
    (Rule.is_positive (rule "p :- -q."));
  Alcotest.(check bool) "negative head" false
    (Rule.is_seminegative (rule "-p :- q."))

let test_rule_vars_predicates () =
  let r = rule "p(X, Y) :- q(Y, Z), -r(X)." in
  Alcotest.(check (list string)) "vars head-first" [ "X"; "Y"; "Z" ] (Rule.vars r);
  Alcotest.(check (list (pair string int)))
    "predicates" [ ("p", 2); ("q", 2); ("r", 1) ] (Rule.predicates r)

let test_rule_apply () =
  let r = rule "p(X) :- q(X, Y)." in
  let s = Subst.of_list [ ("X", term "a"); ("Y", term "b") ] in
  Alcotest.check testable_rule "apply" (rule "p(a) :- q(a, b).") (Rule.apply s r)

(* ------------------------------------------------------------------ *)
(* Herbrand                                                            *)
(* ------------------------------------------------------------------ *)

let test_herbrand_signature () =
  let sg = Herbrand.signature_of_rules (rules "p(a, 1) :- q(f(b)). r.") in
  Alcotest.(check int) "constants" 3 (List.length sg.Herbrand.constants);
  Alcotest.(check (list (pair string int))) "functions" [ ("f", 1) ]
    sg.Herbrand.functions;
  Alcotest.(check (list (pair string int)))
    "predicates" [ ("p", 2); ("q", 1); ("r", 0) ] sg.Herbrand.predicates

let test_herbrand_default_constant () =
  let sg = Herbrand.signature_of_rules (rules "p(X) :- q(X).") in
  Alcotest.(check (list testable_term)) "fresh constant" [ Term.Sym "a0" ]
    sg.Herbrand.constants

let test_herbrand_universe_depth () =
  let sg = Herbrand.signature_of_rules (rules "p(f(a)).") in
  Alcotest.(check int) "depth 0" 1 (List.length (Herbrand.universe ~depth:0 sg));
  (* depth 1: a, f(a) *)
  Alcotest.(check int) "depth 1" 2 (List.length (Herbrand.universe ~depth:1 sg));
  (* depth 2: a, f(a), f(f(a)) *)
  Alcotest.(check int) "depth 2" 3 (List.length (Herbrand.universe ~depth:2 sg))

let test_instantiations () =
  let univ = [ term "a"; term "b"; term "c" ] in
  Alcotest.(check int) "3^2 substitutions" 9
    (Seq.length (Herbrand.instantiations univ [ "X"; "Y" ]));
  Alcotest.(check int) "empty vars: one (empty) substitution" 1
    (Seq.length (Herbrand.instantiations univ []))

let suite =
  [ Alcotest.test_case "term vars" `Quick test_term_vars;
    Alcotest.test_case "term groundness" `Quick test_term_ground;
    Alcotest.test_case "term size and depth" `Quick test_term_size_depth;
    Alcotest.test_case "term compare is a total order" `Quick test_term_compare_total;
    Alcotest.test_case "term rename" `Quick test_term_rename;
    Alcotest.test_case "term pp round-trip" `Quick test_term_pp_roundtrip;
    Alcotest.test_case "atom basics" `Quick test_atom_basic;
    Alcotest.test_case "atom infix printing" `Quick test_atom_infix_pp;
    Alcotest.test_case "literal complement" `Quick test_literal_complement;
    Alcotest.test_case "subst apply" `Quick test_subst_apply;
    Alcotest.test_case "subst bind conflict" `Quick test_subst_bind_conflict;
    Alcotest.test_case "unify basic" `Quick test_unify_basic;
    Alcotest.test_case "unify occurs check" `Quick test_unify_occurs_check;
    Alcotest.test_case "unify clash" `Quick test_unify_clash;
    Alcotest.test_case "unify shared variable" `Quick test_unify_shared_var;
    Alcotest.test_case "one-way matching" `Quick test_match_one_way;
    Alcotest.test_case "interp values" `Quick test_interp_values;
    Alcotest.test_case "interp consistency" `Quick test_interp_consistency;
    Alcotest.test_case "interp set operations" `Quick test_interp_set_ops;
    Alcotest.test_case "interp conjunction value" `Quick test_interp_conj;
    Alcotest.test_case "interp totality" `Quick test_interp_total_undef;
    Alcotest.test_case "rule classification" `Quick test_rule_classification;
    Alcotest.test_case "rule vars and predicates" `Quick test_rule_vars_predicates;
    Alcotest.test_case "rule apply" `Quick test_rule_apply;
    Alcotest.test_case "herbrand signature" `Quick test_herbrand_signature;
    Alcotest.test_case "herbrand default constant" `Quick
      test_herbrand_default_constant;
    Alcotest.test_case "herbrand universe depth" `Quick test_herbrand_universe_depth;
    Alcotest.test_case "herbrand instantiations" `Quick test_instantiations
  ]
