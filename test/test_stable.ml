(* Stable models of ordered programs (Definition 9, Example 5). *)

open Logic
open Helpers

let p5_src =
  {| component c2 { a. b. c. }
     component c1 extends c2 {
       -a :- b, c.
       -b :- a.
       -b :- -b.
     } |}

let test_example5_stable_models () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  Alcotest.check testable_interp_set
    "{a, -b, c} and {-a, b, c} are the stable models"
    [ interp [ "a"; "-b"; "c" ]; interp [ "-a"; "b"; "c" ] ]
    (Ordered.Budget.value (Ordered.Stable.stable_models g))

let test_example5_assumption_free_non_stable () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  let c_only = interp [ "c" ] in
  Alcotest.(check bool) "{c} assumption-free" true
    (Ordered.Model.is_assumption_free g c_only);
  Alcotest.(check bool) "{c} not stable" false (Solve.Kernel.is_stable g c_only);
  Alcotest.(check bool) "{a, -b, c} stable" true
    (Solve.Kernel.is_stable g (interp [ "a"; "-b"; "c" ]));
  (* {c} is the least model *)
  Alcotest.check testable_interp "{c} is the least model" c_only
    (Ordered.Vfix.least_model g)

let test_least_model_in_every_assumption_free () =
  (* Theorem 1(b): the least fixpoint is contained in every model, in
     particular in every assumption-free model. *)
  List.iter
    (fun src ->
      let p = program src in
      let g = ground_at p (Ordered.Program.component_name p 0) in
      let least = Ordered.Vfix.least_model g in
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Format.asprintf "%a <= %a" Interp.pp least Interp.pp m)
            true (Interp.subset least m))
        (Ordered.Budget.value (Ordered.Stable.assumption_free_models g)))
    [ p5_src;
      "component main { a :- b. -a :- b. }";
      "component x { p. -q :- p. } component y extends x { q. }"
    ]

let test_stable_limit () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  Alcotest.(check bool) "limit caps enumeration" true
    (List.length (Ordered.Budget.value (Ordered.Stable.assumption_free_models ~limit:1 g)) = 1)

let test_stable_of_contradictory_facts () =
  (* Two contradictory facts in one component defeat each other: no stable
     model decides p. *)
  let p = program "component main { p. -p. q. }" in
  let g = ground_at p "main" in
  Alcotest.check testable_interp_set "only q is stable"
    [ interp [ "q" ] ]
    (Ordered.Budget.value (Ordered.Stable.stable_models g));
  (* In split components the lower one wins. *)
  let p2 = program "component hi { p. q. } component lo extends hi { -p. }" in
  let g2 = ground_at p2 "lo" in
  Alcotest.check testable_interp_set "overruling decides"
    [ interp [ "-p"; "q" ] ]
    (Ordered.Budget.value (Ordered.Stable.stable_models g2))

let test_stable_models_are_assumption_free_models () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  List.iter
    (fun m ->
      Alcotest.(check bool) "stable => assumption-free" true
        (Ordered.Model.is_assumption_free g m);
      Alcotest.(check bool) "stable => model" true (Ordered.Model.is_model g m))
    (Ordered.Budget.value (Ordered.Stable.stable_models g))

let test_cautious_brave () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  Alcotest.(check bool) "c cautious" true (Solve.Kernel.cautious g (lit "c"));
  Alcotest.(check bool) "a not cautious" false
    (Solve.Kernel.cautious g (lit "a"));
  Alcotest.(check bool) "a brave" true (Solve.Kernel.brave g (lit "a"));
  Alcotest.(check bool) "-a brave" true (Solve.Kernel.brave g (lit "-a"));
  Alcotest.(check bool) "-c not brave" false (Solve.Kernel.brave g (lit "-c"));
  let cc = Solve.Kernel.cautious_consequences g in
  Alcotest.check testable_interp "cautious consequences" (interp [ "c" ]) cc;
  Alcotest.(check bool) "least model below cautious consequences" true
    (Interp.subset (Ordered.Vfix.least_model g) cc)

let suite =
  [ Alcotest.test_case "Example 5: two stable models" `Quick
      test_example5_stable_models;
    Alcotest.test_case "Example 5: {c} assumption-free, not stable" `Quick
      test_example5_assumption_free_non_stable;
    Alcotest.test_case "Theorem 1(b): least model below all" `Quick
      test_least_model_in_every_assumption_free;
    Alcotest.test_case "enumeration limit" `Quick test_stable_limit;
    Alcotest.test_case "contradictory facts" `Quick test_stable_of_contradictory_facts;
    Alcotest.test_case "stable models are assumption-free models" `Quick
      test_stable_models_are_assumption_free_models;
    Alcotest.test_case "cautious and brave entailment" `Quick
      test_cautious_brave
  ]
