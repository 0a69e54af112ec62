(* Exact reproduction of the paper's figures and running examples.

   F1 - Figure 1 / Examples 1-4: program P1 (overruling) and its flattened
        variant P-hat-1 (defeating);
   F2 - Figure 2 / Examples 2-4: program P2 (defeating across incomparable
        components);
   F3 - Figure 3: the loan program, all three scenarios;
   E3 - Example 3: program P3 (exact model list);
   E4 - Example 4: program P4 and its CWA extension;
   E5 - Example 5: program P5 (two stable models) - in Test_stable. *)

open Logic
open Helpers
module P = Ordered.Program

(* ------------------------------------------------------------------ *)
(* Figure 1: P1                                                        *)
(* ------------------------------------------------------------------ *)

let p1_src =
  {| component c2 {
       bird(penguin). bird(pigeon).
       fly(X) :- bird(X).
       -ground_animal(X) :- bird(X).
     }
     component c1 extends c2 {
       ground_animal(penguin).
       -fly(X) :- ground_animal(X).
     } |}

let i1 =
  interp
    [ "bird(pigeon)"; "bird(penguin)"; "ground_animal(penguin)";
      "-ground_animal(pigeon)"; "fly(pigeon)"; "-fly(penguin)"
    ]

(* Example 3: a model for P-hat-1 in C (the flattened program). *)
let i1_hat =
  interp
    [ "bird(pigeon)"; "bird(penguin)"; "fly(pigeon)"; "-ground_animal(pigeon)" ]

let test_fig1_least_model () =
  let p = program p1_src in
  let g = ground_at p "c1" in
  Alcotest.check testable_interp
    "least model in c1 is I1 (penguin grounded, pigeon flies)" i1
    (Ordered.Vfix.least_model g)

let test_fig1_c2_view () =
  (* Example 1: in C2's own view there is no exception, so both birds fly
     and neither is a ground animal. *)
  let p = program p1_src in
  let g = ground_at p "c2" in
  let m = Ordered.Vfix.least_model g in
  Alcotest.check testable_value "penguin flies in c2" Interp.True
    (Interp.value_lit m (lit "fly(penguin)"));
  Alcotest.check testable_value "not a ground animal in c2" Interp.True
    (Interp.value_lit m (lit "-ground_animal(penguin)"))

let test_fig1_flattened () =
  (* Example 3: I1 is a model for P1 in C1 but not for P-hat-1; the least
     model of P-hat-1 is I1-hat with fly(penguin) and
     ground_animal(penguin) undefined. *)
  let p = program p1_src in
  let g = ground_at p "c1" in
  Alcotest.(check bool) "I1 model of P1 in c1" true
    (Ordered.Model.is_model g i1);
  let flat = P.singleton (P.all_rules p) in
  let gf = ground_at flat "main" in
  Alcotest.(check bool) "I1 not a model of flattened" false
    (Ordered.Model.is_model gf i1);
  Alcotest.check testable_interp "least model of flattened" i1_hat
    (Ordered.Vfix.least_model gf);
  Alcotest.(check bool) "I1-hat is a model of flattened" true
    (Ordered.Model.is_model gf i1_hat);
  Alcotest.(check bool) "I1-hat assumption-free (Example 4)" true
    (Ordered.Model.is_assumption_free gf i1_hat)

let test_fig1_stable () =
  let p = program p1_src in
  let g = ground_at p "c1" in
  Alcotest.check testable_interp_set "I1 is the unique stable model in c1"
    [ i1 ]
    (Ordered.Budget.value (Ordered.Stable.stable_models g))

(* ------------------------------------------------------------------ *)
(* Figure 2: P2                                                        *)
(* ------------------------------------------------------------------ *)

let p2_src =
  {| component c3 { rich(mimmo). -poor(X) :- rich(X). }
     component c2 { poor(mimmo). -rich(X) :- poor(X). }
     component c1 extends c2, c3 { free_ticket(X) :- poor(X). } |}

let test_fig2_defeating () =
  let p = program p2_src in
  let g = ground_at p "c1" in
  let m = Ordered.Vfix.least_model g in
  (* Everything about mimmo is defeated: the least model is empty. *)
  Alcotest.check testable_interp "least model empty" Interp.empty m;
  (* Example 4: the empty set is an assumption-free model for P2 in c1. *)
  Alcotest.(check bool) "empty is a model" true
    (Ordered.Model.is_model g Interp.empty);
  Alcotest.(check bool) "empty is assumption-free" true
    (Ordered.Model.is_assumption_free g Interp.empty)

let test_fig2_i2_not_model () =
  (* Example 3: I2 = {rich(mimmo), poor(mimmo)} is an interpretation but
     not a model for P2 in C1. *)
  let p = program p2_src in
  let g = ground_at p "c1" in
  let i2 = interp [ "rich(mimmo)"; "poor(mimmo)" ] in
  Alcotest.(check bool) "I2 not a model" false (Ordered.Model.is_model g i2)

let test_fig2_no_total_model () =
  let p = program p2_src in
  let g = ground_at p "c1" in
  Alcotest.check testable_interp_set "no total model in c1" []
    (Ordered.Budget.value (Solve.Kernel.total_models g))

let test_fig2_rules_defeat_each_other () =
  (* Example 2's commentary: the two rules about mimmo defeat each other. *)
  let p = program p2_src in
  let g = ground_at p "c1" in
  let i2 = interp [ "rich(mimmo)"; "poor(mimmo)" ] in
  let v, _ = Ordered.Gop.Values.of_interp g i2 in
  let idx comp r =
    Option.get (Ordered.Gop.find_rule g (P.component_id_exn p comp) (rule r))
  in
  Alcotest.(check bool) "fact rich(mimmo) defeated" true
    (Ordered.Status.defeated g v (idx "c3" "rich(mimmo)."));
  Alcotest.(check bool) "-rich(mimmo) :- poor(mimmo) defeated" true
    (Ordered.Status.defeated g v (idx "c2" "-rich(mimmo) :- poor(mimmo)."))

(* ------------------------------------------------------------------ *)
(* Figure 3: the loan program                                          *)
(* ------------------------------------------------------------------ *)

let loan_src facts =
  {| component c2 { take_loan :- inflation(X), X > 11. }
     component c4 { -take_loan :- loan_rate(X), X > 14. }
     component c3 extends c4 {
       take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
     }
     component c1 extends c2, c3 { |}
  ^ facts ^ " }"

let loan_value facts =
  let p = program (loan_src facts) in
  let g = ground_at p "c1" in
  Interp.value_lit (Ordered.Vfix.least_model g) (lit "take_loan")

let test_fig3_no_facts () =
  (* "as no rule can be actually fired, no inference is possible at myself
     level" *)
  Alcotest.check testable_value "no facts: undefined" Interp.Undefined
    (loan_value "")

let test_fig3_scenario1 () =
  (* inflation(12): Expert2 fires. *)
  Alcotest.check testable_value "take_loan inferred" Interp.True
    (loan_value "inflation(12).")

let test_fig3_scenario2 () =
  (* inflation(12), loan_rate(16): Expert2 and Expert4 defeat each other. *)
  Alcotest.check testable_value "take_loan defeated" Interp.Undefined
    (loan_value "inflation(12). loan_rate(16).")

let test_fig3_scenario3 () =
  (* inflation(19), loan_rate(16): Expert3 overrules Expert4. *)
  Alcotest.check testable_value "take_loan recovered" Interp.True
    (loan_value "inflation(19). loan_rate(16).")

let test_fig3_scenario3_statuses () =
  let p = program (loan_src "inflation(19). loan_rate(16).") in
  let g = ground_at p "c1" in
  let m = Ordered.Vfix.least_model g in
  let v, _ = Ordered.Gop.Values.of_interp g m in
  let idx comp r =
    Option.get (Ordered.Gop.find_rule g (P.component_id_exn p comp) (rule r))
  in
  (* Expert4's applicable rule is overruled by Expert3's. *)
  let e4 = idx "c4" "-take_loan :- loan_rate(16)." in
  Alcotest.(check bool) "Expert4 applicable" true (Ordered.Status.applicable g v e4);
  Alcotest.(check bool) "Expert4 overruled" true (Ordered.Status.overruled g v e4);
  (* Expert2's rule is defeated by Expert4's (incomparable components). *)
  let e2 = idx "c2" "take_loan :- inflation(19)." in
  Alcotest.(check bool) "Expert2 defeated" true (Ordered.Status.defeated g v e2);
  (* Expert3's rule stands. *)
  let e3 = idx "c3" "take_loan :- inflation(19), loan_rate(16)." in
  Alcotest.(check bool) "Expert3 not overruled" false (Ordered.Status.overruled g v e3);
  Alcotest.(check bool) "Expert3 not defeated" false (Ordered.Status.defeated g v e3);
  Alcotest.(check bool) "Expert3 applied" true (Ordered.Status.applied g v e3)

(* ------------------------------------------------------------------ *)
(* Example 3: program P3                                               *)
(* ------------------------------------------------------------------ *)

let test_example3_p3_models () =
  let p = program "component main { a :- b. -a :- b. }" in
  let g = ground_at p "main" in
  let models =
    List.filter (Ordered.Model.is_model g) (all_interps g.Ordered.Gop.active_base)
  in
  Alcotest.check testable_interp_set
    "models are exactly {b}, {-b}, {a, -b}, {-a, -b}, {}"
    [ interp [ "b" ]; interp [ "-b" ]; interp [ "a"; "-b" ];
      interp [ "-a"; "-b" ]; Interp.empty
    ]
    models;
  (* "the Herbrand Base is not necessarily a model" *)
  Alcotest.(check bool) "{a, b} is not a model" false
    (Ordered.Model.is_model g (interp [ "a"; "b" ]))

let test_example4_p3_assumption_free () =
  let p = program "component main { a :- b. -a :- b. }" in
  let g = ground_at p "main" in
  Alcotest.check testable_interp_set "empty is the only assumption-free model"
    [ Interp.empty ]
    (Ordered.Budget.value (Ordered.Stable.assumption_free_models g))

(* ------------------------------------------------------------------ *)
(* Example 4: program P4                                               *)
(* ------------------------------------------------------------------ *)

let test_example4_p4 () =
  let p = program "component main { a :- b. }" in
  let g = ground_at p "main" in
  Alcotest.check testable_interp_set "only assumption-free model is empty"
    [ Interp.empty ]
    (Ordered.Budget.value (Ordered.Stable.assumption_free_models g));
  (* {-a, -b} is a model but is not assumption-free *)
  Alcotest.(check bool) "{-a, -b} is a model" true
    (Ordered.Model.is_model g (interp [ "-a"; "-b" ]));
  Alcotest.(check bool) "{-a, -b} not assumption-free" false
    (Ordered.Model.is_assumption_free g (interp [ "-a"; "-b" ]))

let test_example4_p4_with_cwa () =
  (* Adding C2 = {-a. -b.} above makes {-a, -b} the only assumption-free
     model. *)
  let p =
    program "component c2 { -a. -b. } component c1 extends c2 { a :- b. }"
  in
  let g = ground_at p "c1" in
  Alcotest.check testable_interp_set "unique assumption-free model"
    [ interp [ "-a"; "-b" ] ]
    (Ordered.Budget.value (Ordered.Stable.assumption_free_models g));
  Alcotest.check testable_interp "and it is the least model"
    (interp [ "-a"; "-b" ])
    (Ordered.Vfix.least_model g)

let suite =
  [ Alcotest.test_case "F1: least model in c1 = I1" `Quick test_fig1_least_model;
    Alcotest.test_case "F1: view from c2 (Example 1)" `Quick test_fig1_c2_view;
    Alcotest.test_case "F1: flattened P1 (Examples 2-4)" `Quick test_fig1_flattened;
    Alcotest.test_case "F1: unique stable model" `Quick test_fig1_stable;
    Alcotest.test_case "F2: defeating (Example 4)" `Quick test_fig2_defeating;
    Alcotest.test_case "F2: I2 is not a model (Example 3)" `Quick
      test_fig2_i2_not_model;
    Alcotest.test_case "F2: no total model" `Quick test_fig2_no_total_model;
    Alcotest.test_case "F2: mutual defeat statuses (Example 2)" `Quick
      test_fig2_rules_defeat_each_other;
    Alcotest.test_case "F3: empty myself" `Quick test_fig3_no_facts;
    Alcotest.test_case "F3: scenario 1" `Quick test_fig3_scenario1;
    Alcotest.test_case "F3: scenario 2" `Quick test_fig3_scenario2;
    Alcotest.test_case "F3: scenario 3" `Quick test_fig3_scenario3;
    Alcotest.test_case "F3: scenario 3 statuses" `Quick test_fig3_scenario3_statuses;
    Alcotest.test_case "E3: models of P3" `Quick test_example3_p3_models;
    Alcotest.test_case "E3/E4: assumption-free models of P3" `Quick
      test_example4_p3_assumption_free;
    Alcotest.test_case "E4: program P4" `Quick test_example4_p4;
    Alcotest.test_case "E4: P4 with explicit CWA" `Quick test_example4_p4_with_cwa
  ]
