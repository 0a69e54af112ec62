(* Unit tests for the grounding substrate: builtins, safety, the
   reference grounder, and the classical oracle's relevance-driven
   grounder (with the witness that it does not preserve ordered
   semantics). *)

open Logic
open Helpers
module B = Ground.Builtin
module G = Ground.Grounder
module R = Datalog.Grounder

let check_term = Alcotest.check testable_term

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let test_builtin_recognition () =
  Alcotest.(check bool) "comparison is builtin" true
    (B.is_builtin_literal (lit "X > 2"));
  Alcotest.(check bool) "negated comparison is builtin" true
    (B.is_builtin_literal (lit "not X > 2"));
  Alcotest.(check bool) "ordinary atom is not" false
    (B.is_builtin_literal (lit "p(X)"));
  (* a user binary predicate named like nothing special *)
  Alcotest.(check bool) "lt/2 user predicate is not builtin" false
    (B.is_builtin_atom (Atom.make "lt" [ term "X"; term "Y" ]))

let test_eval_term_arith () =
  check_term "addition" (Term.Int 3) (B.eval_term (term "1 + 2"));
  check_term "precedence chain" (Term.Int 7) (B.eval_term (term "1 + 2 * 3"));
  check_term "nested in function" (term "f(6)") (B.eval_term (term "f(2 * 3)"));
  check_term "mod" (Term.Int 2) (B.eval_term (term "5 mod 3"));
  check_term "division truncates" (Term.Int 2) (B.eval_term (term "7 / 3"));
  check_term "unary minus" (Term.Int (-4)) (B.eval_term (term "-(2 + 2)"));
  check_term "symbolic left alone" (term "penguin + 1")
    (B.eval_term (term "penguin + 1"))

let test_eval_term_errors () =
  (match B.eval_term (term "1 / 0") with
  | exception Governor.Diag.Error (Governor.Diag.Eval_error { op = "/"; _ })
    -> ()
  | _ -> Alcotest.fail "division by zero should raise a typed Eval_error");
  (match B.eval_term (term "5 mod 0") with
  | exception Governor.Diag.Error (Governor.Diag.Eval_error { op = "mod"; _ })
    -> ()
  | _ -> Alcotest.fail "modulo by zero should raise a typed Eval_error");
  match B.eval_term (term "X + 1") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-ground eval should raise"

let test_eval_atom () =
  let ev s = B.eval_literal (lit s) in
  Alcotest.(check (option bool)) "12 > 11" (Some true) (ev "12 > 11");
  Alcotest.(check (option bool)) "12 > 14" (Some false) (ev "12 > 14");
  Alcotest.(check (option bool)) "19 > 16 + 2" (Some true) (ev "19 > 16 + 2");
  Alcotest.(check (option bool)) "negated" (Some false) (ev "not 12 > 11");
  Alcotest.(check (option bool)) "equality on symbols" (Some true) (ev "a = a");
  Alcotest.(check (option bool)) "disequality on symbols" (Some true) (ev "a != b");
  Alcotest.(check (option bool)) "order on symbols does not evaluate" None
    (ev "a < b");
  Alcotest.(check (option bool)) "le" (Some true) (ev "3 <= 3");
  Alcotest.(check (option bool)) "ge" (Some false) (ev "2 >= 3")

(* ------------------------------------------------------------------ *)
(* Safety                                                              *)
(* ------------------------------------------------------------------ *)

let test_safety () =
  Alcotest.(check bool) "safe rule" true
    (Ground.Safety.is_safe (rule "p(X) :- q(X), X > 2."));
  Alcotest.(check bool) "negative body literal binds (classical negation)" true
    (Ground.Safety.is_safe (rule "p(X) :- -q(X)."));
  Alcotest.(check bool) "head variable unbound" false
    (Ground.Safety.is_safe (rule "p(X, Y) :- q(X)."));
  Alcotest.(check bool) "builtin variable unbound" false
    (Ground.Safety.is_safe (rule "p :- X > 2."));
  Alcotest.(check bool) "non-ground fact is unsafe" false
    (Ground.Safety.is_safe (rule "p(X)."));
  Alcotest.(check (list string)) "unbound vars reported" [ "Y" ]
    (Ground.Safety.unbound_vars (rule "p(X, Y) :- q(X)."));
  Alcotest.(check int) "program check" 1
    (List.length (Ground.Safety.check (rules "p(X) :- q(X). r(Y).")))

(* ------------------------------------------------------------------ *)
(* Naive grounding                                                     *)
(* ------------------------------------------------------------------ *)

let test_naive_ground_basic () =
  let g = G.naive (rules "p(X) :- q(X). q(a). q(b).") in
  Alcotest.(check int) "instances: 2 rules + 2 facts" 4 (List.length g.G.rules);
  Alcotest.(check bool) "contains p(a) :- q(a)" true
    (List.mem (rule "p(a) :- q(a).") g.G.rules)

let test_naive_ground_builtin_filter () =
  let g = G.naive (rules "big(X) :- n(X), X > 3. n(2). n(5).") in
  (* only the X=5 instance survives, with the builtin removed *)
  Alcotest.(check bool) "surviving instance loses builtin" true
    (List.mem (rule "big(5) :- n(5).") g.G.rules);
  Alcotest.(check bool) "failing instance dropped" false
    (List.exists
       (fun r -> Rule.equal r (rule "big(2) :- n(2)."))
       g.G.rules)

let test_naive_ground_arith_normalisation () =
  let g = G.naive (rules "p(X + 1) :- n(X). n(2).") in
  Alcotest.(check bool) "arithmetic evaluated in heads" true
    (List.mem (rule "p(3) :- n(2).") g.G.rules)

let test_naive_ground_unsafe_fact () =
  (* The OV construction grounds non-ground negative facts over the whole
     universe. *)
  let g = G.naive (rules "-p(X). q(a). q(b).") in
  Alcotest.(check bool) "CWA fact expands" true
    (List.mem (rule "-p(a).") g.G.rules && List.mem (rule "-p(b).") g.G.rules)

let test_naive_ground_depth () =
  let src = rules "p(f(a)). q(X) :- p(X)." in
  let g0 = G.naive ~depth:0 src in
  let g1 = G.naive ~depth:1 src in
  (* depth 0: universe {a}; the fact p(f(a)) is already ground and kept. *)
  Alcotest.(check bool) "fact survives at depth 0" true
    (List.mem (rule "p(f(a)).") g0.G.rules);
  Alcotest.(check bool) "depth 0 misses q(f(a)) :- p(f(a))" false
    (List.mem (rule "q(f(a)) :- p(f(a)).") g0.G.rules);
  Alcotest.(check bool) "depth 1 has it" true
    (List.mem (rule "q(f(a)) :- p(f(a)).") g1.G.rules)

let test_finalize_instance () =
  Alcotest.(check (option testable_rule)) "true builtin removed"
    (Some (rule "p(a) :- q(a)."))
    (G.finalize_instance (rule "p(a) :- q(a), 3 > 2."));
  Alcotest.(check (option testable_rule)) "false builtin kills" None
    (G.finalize_instance (rule "p(a) :- q(a), 2 > 3."));
  Alcotest.(check (option testable_rule)) "unevaluable comparison kills" None
    (G.finalize_instance (rule "p(a) :- a < b."))

(* ------------------------------------------------------------------ *)
(* Relevance-driven grounding (the classical oracle's)                *)
(* ------------------------------------------------------------------ *)

let test_relevant_prunes () =
  let src = rules "p(X) :- q(X). q(a). r(b)." in
  let naive = G.naive src in
  let relevant = R.relevant src in
  Alcotest.(check bool) "relevant subset of naive" true
    (List.for_all (fun r -> List.mem r naive.G.rules) relevant.G.rules);
  Alcotest.(check bool) "p(a) kept" true
    (List.mem (rule "p(a) :- q(a).") relevant.G.rules);
  Alcotest.(check bool) "p(b) pruned (q(b) underivable)" false
    (List.mem (rule "p(b) :- q(b).") relevant.G.rules);
  Alcotest.(check bool) "naive has p(b)" true
    (List.mem (rule "p(b) :- q(b).") naive.G.rules)

let test_relevant_classical_negative_support () =
  (* Classical mode: a negative body literal needs a derived negative
     head. *)
  let src = rules "-q(a). p(X) :- -q(X)." in
  let g = R.relevant src in
  Alcotest.(check bool) "p(a) supported by -q(a)" true
    (List.mem (rule "p(a) :- -q(a).") g.G.rules)

let test_relevant_naf_mode () =
  (* NAF mode: negative literals are assumed satisfiable. *)
  let src = rules "p(X) :- q(X), -r(X). q(a)." in
  let classical = R.relevant src in
  let naf = R.relevant ~naf:true src in
  Alcotest.(check bool) "classical prunes (no -r derivable)" false
    (List.mem (rule "p(a) :- q(a), -r(a).") classical.G.rules);
  Alcotest.(check bool) "naf keeps" true
    (List.mem (rule "p(a) :- q(a), -r(a).") naf.G.rules)

let test_relevant_recursive () =
  let src =
    rules
      "anc(X, Y) :- parent(X, Y). anc(X, Y) :- parent(X, Z), anc(Z, Y). \
       parent(a, b). parent(b, c)."
  in
  let g = R.relevant src in
  Alcotest.(check bool) "transitive instance found" true
    (List.mem (rule "anc(a, c) :- parent(a, b), anc(b, c).") g.G.rules);
  (* No instance joins unreachable pairs in the first position. *)
  Alcotest.(check bool) "no unsupported join" false
    (List.exists
       (fun r -> Rule.equal r (rule "anc(c, a) :- parent(c, a)."))
       g.G.rules)

let test_relevant_equals_naive_fixpoint () =
  (* For a positive program the minimal models computed from either
     grounding agree. *)
  let src =
    rules
      "e(1, 2). e(2, 3). e(3, 4). t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), \
       t(Z, Y)."
  in
  let m g =
    let p = Datalog.Nprog.of_rules g.G.rules in
    Datalog.Nprog.decode_mask p (Datalog.Consequence.lfp p)
  in
  Alcotest.(check bool) "same minimal model" true
    (Atom.Set.equal (m (G.naive src)) (m (R.relevant src)))

let test_relevant_ordered_caveat () =
  (* The documented counterexample: dropping a rule with an underivable
     body changes the least ordered model, because the dropped rule would
     still have suppressed a contradictor.  The relevant grounding of the
     OV view is interned by keeping the reference grounding's tagged
     instances the relevance grounder also produces. *)
  let rules_ = rules "q :- q. p :- q." in
  let ov = Ordered.Bridge.ov rules_ in
  let id = Ordered.Program.component_id_exn ov "main" in
  let naive_m = Ordered.Vfix.least_model (Ordered.Gop.ground ov id) in
  let relevant =
    Rule.Set.of_list
      (R.relevant (List.map snd (Ordered.Program.view ov id))).G.rules
  in
  let tagged =
    Ordered.Gop.flatten_groups (Ordered.Gop.ground_groups ov id)
    |> List.filter (fun (_, r) -> Rule.Set.mem r relevant)
  in
  let rel_m = Ordered.Vfix.least_model (Ordered.Gop.of_view ov id tagged) in
  Alcotest.(check bool) "least models differ" false
    (Interp.equal naive_m rel_m);
  (* naive: q stays undefined (the CWA fact is overruled by the non-blocked
     self-loop); relevant: the self-loop is pruned so -q is derived. *)
  Alcotest.check testable_value "naive: q undefined" Interp.Undefined
    (Interp.value_lit naive_m (lit "q"));
  Alcotest.check testable_value "relevant: q false" Interp.False
    (Interp.value_lit rel_m (lit "q"))

let suite =
  [ Alcotest.test_case "builtin recognition" `Quick test_builtin_recognition;
    Alcotest.test_case "arithmetic evaluation" `Quick test_eval_term_arith;
    Alcotest.test_case "arithmetic errors" `Quick test_eval_term_errors;
    Alcotest.test_case "comparison evaluation" `Quick test_eval_atom;
    Alcotest.test_case "safety analysis" `Quick test_safety;
    Alcotest.test_case "naive grounding" `Quick test_naive_ground_basic;
    Alcotest.test_case "builtin filtering" `Quick test_naive_ground_builtin_filter;
    Alcotest.test_case "arithmetic normalisation" `Quick
      test_naive_ground_arith_normalisation;
    Alcotest.test_case "unsafe facts expand over the universe" `Quick
      test_naive_ground_unsafe_fact;
    Alcotest.test_case "depth bound" `Quick test_naive_ground_depth;
    Alcotest.test_case "finalize_instance" `Quick test_finalize_instance;
    Alcotest.test_case "relevant grounding prunes" `Quick test_relevant_prunes;
    Alcotest.test_case "relevant: classical negative support" `Quick
      test_relevant_classical_negative_support;
    Alcotest.test_case "relevant: naf mode" `Quick test_relevant_naf_mode;
    Alcotest.test_case "relevant: recursion" `Quick test_relevant_recursive;
    Alcotest.test_case "relevant = naive on positive fixpoints" `Quick
      test_relevant_equals_naive_fixpoint;
    Alcotest.test_case "relevant grounding caveat on ordered programs" `Quick
      test_relevant_ordered_caveat
  ]
