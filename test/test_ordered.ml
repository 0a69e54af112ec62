(* Unit tests for the ordered core: posets, programs, grounding views,
   Definition 2 statuses, the V fixpoint, Definition 3 model checking,
   assumption sets and exhaustive/total models. *)

open Logic
open Helpers
module P = Ordered.Program
module Poset = Ordered.Poset

(* ------------------------------------------------------------------ *)
(* Poset                                                               *)
(* ------------------------------------------------------------------ *)

let test_poset_closure () =
  match Poset.make ~n:3 ~pairs:[ (0, 1); (1, 2) ] with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check bool) "transitive" true (Poset.lt t 0 2);
    Alcotest.(check bool) "not symmetric" false (Poset.lt t 2 0);
    Alcotest.(check bool) "leq reflexive" true (Poset.leq t 1 1);
    Alcotest.(check bool) "irreflexive lt" false (Poset.lt t 1 1)

let test_poset_cycle () =
  (match Poset.make ~n:2 ~pairs:[ (0, 1); (1, 0) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cycle must be rejected");
  match Poset.make ~n:2 ~pairs:[ (0, 5) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out of range must be rejected"

let test_poset_queries () =
  let t = Result.get_ok (Poset.make ~n:4 ~pairs:[ (0, 1); (0, 2) ]) in
  Alcotest.(check bool) "incomparable" true (Poset.incomparable t 1 2);
  Alcotest.(check bool) "not incomparable with self" false (Poset.incomparable t 1 1);
  Alcotest.(check (list int)) "above 0 includes itself" [ 0; 1; 2 ] (Poset.above t 0);
  Alcotest.(check (list int)) "minimal" [ 0; 3 ] (Poset.minimal t)

(* ------------------------------------------------------------------ *)
(* Programs and views                                                  *)
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

let test_program_errors () =
  (match P.make [ ("a", []); ("a", []) ] [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate names rejected");
  (match P.make [ ("a", []) ] [ ("a", "zz") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown order name rejected");
  match P.make [ ("a", []); ("b", []) ] [ ("a", "b"); ("b", "a") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cyclic order rejected"

let test_view () =
  let p = program p1_src in
  let c1 = P.component_id_exn p "c1" in
  let c2 = P.component_id_exn p "c2" in
  Alcotest.(check int) "c1 sees 6 rules" 6 (List.length (P.view p c1));
  Alcotest.(check int) "c2 sees only its 4" 4 (List.length (P.view p c2));
  Alcotest.(check int) "all rules" 6 (List.length (P.all_rules p))

let test_gop_grounding () =
  let p = program p1_src in
  let g = ground_at p "c1" in
  (* universe {penguin, pigeon}: c2 has 2 facts + 2 rules x 2 instances,
     c1 has 1 fact + 1 rule x 2 instances -> 9 ground rules *)
  Alcotest.(check int) "ground rule count" 9 (Ordered.Gop.n_rules g);
  Alcotest.(check int) "atoms" 6 (Ordered.Gop.n_atoms g);
  Alcotest.(check bool) "find penguin fly rule" true
    (find_rule g (P.component_id_exn p "c2")
       (rule "fly(penguin) :- bird(penguin).")
    <> None)

let test_gop_duplicate_rule_components () =
  (* The same rule in two components keeps distinct ground instances. *)
  let p = program "component a { p. } component b extends a { p. }" in
  let g = ground_at p "b" in
  Alcotest.(check int) "two instances of p." 2 (Ordered.Gop.n_rules g)

(* ------------------------------------------------------------------ *)
(* Definition 2: statuses (paper Example 2)                            *)
(* ------------------------------------------------------------------ *)

let i1 =
  [ "bird(pigeon)"; "bird(penguin)"; "ground_animal(penguin)";
    "-ground_animal(pigeon)"; "fly(pigeon)"; "-fly(penguin)"
  ]

let status_of g m comp r =
  let prog = g.Ordered.Gop.program in
  let idx =
    Option.get
      (find_rule g (P.component_id_exn prog comp) (rule r))
  in
  let v, _ = Ordered.Gop.Values.of_interp g (interp m) in
  Ordered.Status.report g v idx

let test_example2_statuses () =
  let p = program p1_src in
  let g = ground_at p "c1" in
  (* fly(penguin) :- bird(penguin) is applicable but overruled *)
  let s = status_of g i1 "c2" "fly(penguin) :- bird(penguin)." in
  Alcotest.(check bool) "applicable" true s.Ordered.Status.applicable;
  Alcotest.(check bool) "overruled" true s.Ordered.Status.overruled;
  Alcotest.(check bool) "not applied" false s.Ordered.Status.applied;
  (* the overruling rule is applied *)
  let s2 = status_of g i1 "c1" "-fly(penguin) :- ground_animal(penguin)." in
  Alcotest.(check bool) "overruler applied" true s2.Ordered.Status.applied;
  Alcotest.(check bool) "overruler not overruled" false s2.Ordered.Status.overruled;
  (* -fly(pigeon) :- ground_animal(pigeon) is blocked and non-applicable *)
  let s3 = status_of g i1 "c1" "-fly(pigeon) :- ground_animal(pigeon)." in
  Alcotest.(check bool) "blocked" true s3.Ordered.Status.blocked;
  Alcotest.(check bool) "non-applicable" false s3.Ordered.Status.applicable

let test_example2_flattened_defeat () =
  let p = program p1_src in
  let flat = P.singleton (P.all_rules p) in
  let g = ground_at flat "main" in
  let s = status_of g i1 "main" "fly(penguin) :- bird(penguin)." in
  Alcotest.(check bool) "defeated in flattened program" true
    s.Ordered.Status.defeated;
  Alcotest.(check bool) "not overruled (same component)" false
    s.Ordered.Status.overruled;
  let s2 = status_of g i1 "main" "ground_animal(penguin)." in
  Alcotest.(check bool) "the fact is defeated too" true s2.Ordered.Status.defeated

(* ------------------------------------------------------------------ *)
(* V fixpoint                                                          *)
(* ------------------------------------------------------------------ *)

let test_vfix_p1 () =
  let p = program p1_src in
  let g = ground_at p "c1" in
  Alcotest.check testable_interp "least model = I1" (interp i1)
    (Ordered.Vfix.least_model g)

let test_vfix_engines_agree () =
  List.iter
    (fun src ->
      let p = program src in
      let g = ground_at p (P.component_name p 0) in
      Alcotest.check testable_interp src
        (Ordered.Gop.Values.to_interp g (Oracle.Vfix.lfp_naive g))
        (Ordered.Vfix.least_model g))
    [ p1_src;
      "component main { a :- b. -a :- b. b. }";
      "component a { p. q :- p. } component b extends a { -p. r :- -p. }";
      "component x { p :- -q. } component y { q. } order x < y."
    ]

let test_vfix_monotone_rounds () =
  (* step is inflationary along the Kleene iteration *)
  let p = program p1_src in
  let g = ground_at p "c1" in
  let v0 = Ordered.Gop.Values.create g in
  let v1 = Oracle.Vfix.step g v0 in
  let v2 = Oracle.Vfix.step g v1 in
  let subset a b =
    Interp.subset (Ordered.Gop.Values.to_interp g a) (Ordered.Gop.Values.to_interp g b)
  in
  Alcotest.(check bool) "v0 <= v1" true (subset v0 v1);
  Alcotest.(check bool) "v1 <= v2" true (subset v1 v2)

(* ------------------------------------------------------------------ *)
(* Definition 3: models                                                *)
(* ------------------------------------------------------------------ *)

let test_models_p1 () =
  let p = program p1_src in
  let g = ground_at p "c1" in
  Alcotest.(check bool) "I1 is a model" true
    (Ordered.Model.is_model g (interp i1));
  Alcotest.(check bool) "I1 assumption-free" true
    (Ordered.Model.is_assumption_free g (interp i1));
  (* flattened: I1 is not a model *)
  let flat = P.singleton (P.all_rules p) in
  let gf = ground_at flat "main" in
  Alcotest.(check bool) "I1 not a model of flattened" false
    (Ordered.Model.is_model gf (interp i1));
  Alcotest.(check bool) "violations reported" true
    (Ordered.Model.violations gf (interp i1) <> [])

let test_model_free_atoms () =
  (* Literals over atoms no rule mentions are permitted in models but are
     assumption sets, hence never assumption-free. *)
  let p = program "component main { p. }" in
  let g = ground_at p "main" in
  let m = Interp.of_literals [ lit "p"; lit "ghost" ] in
  Alcotest.(check bool) "model with free atom" true (Ordered.Model.is_model g m);
  Alcotest.(check bool) "but not assumption-free" false
    (Ordered.Model.is_assumption_free g m);
  Alcotest.(check bool) "free literal is an assumption set" true
    (Ordered.Model.is_assumption_set g m [ lit "ghost" ])

let test_assumption_set_cycle () =
  (* Mutual support is an assumption set: {a, b} with a :- b. b :- a. *)
  let p = program "component main { a :- b. b :- a. }" in
  let g = ground_at p "main" in
  let m = interp [ "a"; "b" ] in
  Alcotest.(check bool) "{a, b} is a model" true (Ordered.Model.is_model g m);
  Alcotest.(check (list testable_literal)) "largest assumption set"
    [ lit "a"; lit "b" ]
    (List.sort Literal.compare (Ordered.Model.largest_assumption_set g m));
  Alcotest.(check bool) "{a, b} is an assumption set" true
    (Ordered.Model.is_assumption_set g m [ lit "a"; lit "b" ]);
  Alcotest.(check bool) "not assumption-free" false
    (Ordered.Model.is_assumption_free g m)

let test_assumption_free_methods_agree () =
  (* Theorem 1(a): the enabled-fixpoint method and the direct Definition 6
     gfp agree on models. *)
  List.iter
    (fun src ->
      let p = program src in
      let g = ground_at p (P.component_name p 0) in
      List.iter
        (fun m ->
          if Ordered.Model.is_model g m then
            Alcotest.(check bool)
              (Format.asprintf "%s / %a" src Interp.pp m)
              (Ordered.Model.largest_assumption_set g m = [])
              (Ordered.Model.is_assumption_free g m))
        (all_interps (Ordered.Gop.active_base g)))
    [ "component main { a :- b. -a :- b. }";
      "component main { a :- b. b :- a. c. }";
      "component a { p. } component b extends a { -p. }"
    ]

(* ------------------------------------------------------------------ *)
(* Exhaustive and total models (Definition 5, Proposition 2)           *)
(* ------------------------------------------------------------------ *)

let test_total_and_exhaustive () =
  let p = program p1_src in
  let g = ground_at p "c1" in
  let m = interp i1 in
  Alcotest.(check bool) "I1 total" true (Ordered.Exhaustive.is_total g m);
  Alcotest.(check bool) "I1 exhaustive" true (Ordered.Exhaustive.is_exhaustive g m);
  Alcotest.(check bool) "least of flattened is not total" false
    (let flat = P.singleton (P.all_rules p) in
     let gf = ground_at flat "main" in
     Ordered.Exhaustive.is_total gf (Ordered.Vfix.least_model gf))

let test_extend_to_exhaustive () =
  let p = program "component main { a :- b. -a :- b. }" in
  let g = ground_at p "main" in
  (* {} is a model; it extends to an exhaustive one *)
  let e = Ordered.Exhaustive.extend g Interp.empty in
  Alcotest.(check bool) "extension is a model" true (Ordered.Model.is_model g e);
  Alcotest.(check bool) "extension is exhaustive" true
    (Ordered.Exhaustive.is_exhaustive g e);
  Alcotest.(check bool) "non-model input rejected" true
    (match Ordered.Exhaustive.extend g (interp [ "a" ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_total_models_enumeration () =
  let p = program "component main { a :- b. -a :- b. }" in
  let g = ground_at p "main" in
  (* total models over {a, b}: from the paper's list, the total ones are
     (a, -b) and (-a, -b). *)
  Alcotest.check testable_interp_set "total models"
    [ interp [ "a"; "-b" ]; interp [ "-a"; "-b" ] ]
    (Ordered.Budget.value (Solve.Kernel.total_models g))

let suite =
  [ Alcotest.test_case "poset closure" `Quick test_poset_closure;
    Alcotest.test_case "poset cycle rejection" `Quick test_poset_cycle;
    Alcotest.test_case "poset queries" `Quick test_poset_queries;
    Alcotest.test_case "program validation" `Quick test_program_errors;
    Alcotest.test_case "views C*" `Quick test_view;
    Alcotest.test_case "grounding a view" `Quick test_gop_grounding;
    Alcotest.test_case "same rule in two components" `Quick
      test_gop_duplicate_rule_components;
    Alcotest.test_case "Example 2: statuses in P1" `Quick test_example2_statuses;
    Alcotest.test_case "Example 2: defeat in flattened P1" `Quick
      test_example2_flattened_defeat;
    Alcotest.test_case "V fixpoint on P1" `Quick test_vfix_p1;
    Alcotest.test_case "V engines agree" `Quick test_vfix_engines_agree;
    Alcotest.test_case "V is inflationary along Kleene iteration" `Quick
      test_vfix_monotone_rounds;
    Alcotest.test_case "models of P1" `Quick test_models_p1;
    Alcotest.test_case "free atoms in models" `Quick test_model_free_atoms;
    Alcotest.test_case "assumption sets: cycles" `Quick test_assumption_set_cycle;
    Alcotest.test_case "Theorem 1(a): methods agree" `Quick
      test_assumption_free_methods_agree;
    Alcotest.test_case "total and exhaustive models" `Quick test_total_and_exhaustive;
    Alcotest.test_case "Proposition 2: extension" `Quick test_extend_to_exhaustive;
    Alcotest.test_case "total model enumeration" `Quick test_total_models_enumeration
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_poset_self_loop () =
  match Poset.make ~n:1 ~pairs:[ (0, 0) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a < a must be rejected"

let test_empty_program () =
  let p = P.make_exn [ ("only", []) ] [] in
  let g = ground_at p "only" in
  Alcotest.(check int) "no rules" 0 (Ordered.Gop.n_rules g);
  Alcotest.check testable_interp "empty least model" Interp.empty
    (Ordered.Vfix.least_model g);
  Alcotest.(check bool) "empty is a model" true
    (Ordered.Model.is_model g Interp.empty);
  Alcotest.check testable_interp_set "one stable model: empty"
    [ Interp.empty ]
    (Ordered.Budget.value (Ordered.Stable.stable_models g))

let test_find_rule_miss () =
  let p = program "component main { p. }" in
  let g = ground_at p "main" in
  Alcotest.(check bool) "missing rule not found" true
    (find_rule g 0 (rule "q.") = None)

let test_values_inconsistent_set () =
  let p = program "component main { p. }" in
  let g = ground_at p "main" in
  let v = Ordered.Gop.Values.create g in
  Ordered.Gop.Values.set v 0 true;
  Ordered.Gop.Values.set v 0 true;
  match Ordered.Gop.Values.set v 0 false with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "inconsistent assignment must raise"

let edge_suite =
  [ Alcotest.test_case "poset: a < a rejected" `Quick test_poset_self_loop;
    Alcotest.test_case "empty component program" `Quick test_empty_program;
    Alcotest.test_case "find_rule miss" `Quick test_find_rule_miss;
    Alcotest.test_case "Values consistency" `Quick test_values_inconsistent_set
  ]

let suite = suite @ edge_suite

(* The paper's Definition-5 commentary: every total model is exhaustive;
   the converse fails; a non-total exhaustive model can coexist with a
   total one. *)

let test_total_implies_exhaustive () =
  let p = program "component main { a :- b. -a :- b. }" in
  let g = ground_at p "main" in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Format.asprintf "%a exhaustive" Interp.pp m)
        true
        (Ordered.Exhaustive.is_exhaustive g m))
    (Ordered.Budget.value (Solve.Kernel.total_models g))

let test_nontotal_exhaustive_beside_total () =
  let p = program "component main { a :- b. -a :- b. }" in
  let g = ground_at p "main" in
  (* {a, -b} is total; {b} is exhaustive but not total *)
  Alcotest.(check bool) "a total model exists" true
    (Ordered.Budget.value (Solve.Kernel.total_models g) <> []);
  let b_only = interp [ "b" ] in
  Alcotest.(check bool) "{b} is a model" true (Ordered.Model.is_model g b_only);
  Alcotest.(check bool) "{b} not total" false
    (Ordered.Exhaustive.is_total g b_only);
  Alcotest.(check bool) "{b} exhaustive" true
    (Ordered.Exhaustive.is_exhaustive g b_only)

let prop_total_implies_exhaustive =
  Helpers.qcheck ~count:30 ~print:Helpers.print_program
    "Def 5: total models are exhaustive" (Test_props.gen_ordered 3) (fun p ->
      let g = Ordered.Gop.ground p 0 in
      List.for_all
        (Ordered.Exhaustive.is_exhaustive g)
        (Ordered.Budget.value (Solve.Kernel.total_models g)))

let suite =
  suite
  @ [ Alcotest.test_case "total models are exhaustive (P3)" `Quick
        test_total_implies_exhaustive;
      Alcotest.test_case "non-total exhaustive beside a total model" `Quick
        test_nontotal_exhaustive_beside_total;
      prop_total_implies_exhaustive
    ]
