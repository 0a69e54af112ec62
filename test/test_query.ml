(* Goal-directed proving (Prove) and non-ground queries (Query). *)

open Logic
open Helpers

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

let g1 () = ground_at (program p1_src) "c1"

(* ------------------------------------------------------------------ *)
(* Prove                                                               *)
(* ------------------------------------------------------------------ *)

let test_prove_agrees_on_p1 () =
  let g = g1 () in
  let m = Ordered.Vfix.least_model g in
  List.iter
    (fun a ->
      List.iter
        (fun pol ->
          let l = Literal.make pol a in
          Alcotest.check testable_value (Literal.to_string l)
            (Interp.value_lit m l) (Ordered.Prove.value g l))
        [ true; false ])
    (Ordered.Gop.active_base g)

let test_prove_unknown_literal () =
  let g = g1 () in
  Alcotest.(check bool) "unknown atom fails" false
    (Ordered.Prove.holds g (lit "made_up(thing)"));
  Alcotest.check testable_value "unknown atom undefined" Interp.Undefined
    (Ordered.Prove.value g (lit "made_up(thing)"))

let test_prove_requires_ground () =
  match Ordered.Prove.holds (g1 ()) (lit "fly(X)") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-ground goal should be rejected"

let test_prove_closure_is_partial () =
  (* Two disconnected islands: proving in one should not touch the
     other. *)
  let p =
    program
      {| component main {
           a0. a1 :- a0. a2 :- a1.
           b0. b1 :- b0. b2 :- b1. b3 :- b2.
         } |}
  in
  let g = ground_at p "main" in
  let holds, stats = Ordered.Prove.holds_with_stats g (lit "a2") in
  Alcotest.(check bool) "a2 provable" true holds;
  Alcotest.(check int) "only the a-island explored" 3
    stats.Ordered.Prove.relevant_rules;
  Alcotest.(check int) "total is both islands" 7
    stats.Ordered.Prove.total_rules

let test_prove_explores_suppressor_blockers () =
  (* fly(pigeon) needs the suppressor -fly(pigeon) :- ground_animal(pigeon)
     blocked, which needs -ground_animal(pigeon), which needs
     bird(pigeon): the closure must pull all of that in. *)
  let g = g1 () in
  let holds, stats = Ordered.Prove.holds_with_stats g (lit "fly(pigeon)") in
  Alcotest.(check bool) "fly(pigeon) provable" true holds;
  Alcotest.(check bool) "closure is non-trivial" true
    (stats.Ordered.Prove.relevant_rules >= 3)

let prop_prove_agrees =
  qcheck ~count:120 ~print:Test_props.print_program_and_literal
    "Prove = materialised least model"
    Test_props.gen_program_and_literal
    (fun (p, l) ->
      let g = Ordered.Gop.ground p 0 in
      let m = Ordered.Vfix.least_model g in
      Ordered.Prove.value g l = Interp.value_lit m l)

(* ------------------------------------------------------------------ *)
(* Query                                                               *)
(* ------------------------------------------------------------------ *)

let test_query_ground () =
  let g = g1 () in
  Alcotest.check testable_value "ground ask" Interp.False
    (Ordered.Query.ask g (lit "fly(penguin)"))

let test_query_answers () =
  let g = g1 () in
  Alcotest.(check (list testable_literal)) "who flies?"
    [ lit "fly(pigeon)" ]
    (Ordered.Query.holds_instances g (lit "fly(X)"));
  Alcotest.(check (list testable_literal)) "who does not fly?"
    [ lit "-fly(penguin)" ]
    (Ordered.Query.holds_instances g (lit "-fly(X)"));
  Alcotest.(check int) "all birds" 2
    (List.length (Ordered.Query.answers g (lit "bird(X)")));
  Alcotest.(check (list testable_literal)) "no matches"
    []
    (Ordered.Query.holds_instances g (lit "swims(X)"))

let test_query_ground_hit_and_miss () =
  let g = g1 () in
  Alcotest.(check int) "ground query true: one empty answer" 1
    (List.length (Ordered.Query.answers g (lit "bird(pigeon)")));
  Alcotest.(check int) "ground query false: no answers" 0
    (List.length (Ordered.Query.answers g (lit "fly(penguin)")))

let test_query_conjunctive () =
  let g = g1 () in
  let answers =
    Ordered.Query.answers_conj g [ lit "bird(X)"; lit "fly(X)" ]
  in
  (match answers with
  | [ s ] ->
    Alcotest.check testable_term "join binds X" (term "pigeon")
      (Subst.apply_term s (term "X"))
  | other ->
    Alcotest.fail (Printf.sprintf "expected 1 answer, got %d" (List.length other)));
  (* shared variables join across literals *)
  Alcotest.(check int) "contradictory conjunction" 0
    (List.length
       (Ordered.Query.answers_conj g [ lit "bird(X)"; lit "ground_animal(X)"; lit "fly(X)" ]))

let test_query_conj_builtin () =
  let p =
    program "component main { n(1). n(2). n(5). }"
  in
  let g = ground_at p "main" in
  Alcotest.(check int) "n(X), X > 1 has two answers" 2
    (List.length (Ordered.Query.answers_conj g [ lit "n(X)"; lit "X > 1" ]));
  match Ordered.Query.answers_conj g [ lit "X > 1" ] with
  | exception Ordered.Diag.Error (Ordered.Diag.Nonground_builtin _) -> ()
  | _ -> Alcotest.fail "unbound builtin should be rejected"

let test_query_empty_conj () =
  let g = g1 () in
  Alcotest.(check int) "empty conjunction: one empty answer" 1
    (List.length (Ordered.Query.answers_conj g []))

let suite =
  [ Alcotest.test_case "prove agrees on P1" `Quick test_prove_agrees_on_p1;
    Alcotest.test_case "prove: unknown literal" `Quick test_prove_unknown_literal;
    Alcotest.test_case "prove: ground goals only" `Quick test_prove_requires_ground;
    Alcotest.test_case "prove: closure stays local" `Quick
      test_prove_closure_is_partial;
    Alcotest.test_case "prove: suppressor blockers explored" `Quick
      test_prove_explores_suppressor_blockers;
    prop_prove_agrees;
    Alcotest.test_case "query: ground ask" `Quick test_query_ground;
    Alcotest.test_case "query: answers" `Quick test_query_answers;
    Alcotest.test_case "query: ground hit and miss" `Quick
      test_query_ground_hit_and_miss;
    Alcotest.test_case "query: conjunctive joins" `Quick test_query_conjunctive;
    Alcotest.test_case "query: builtins in conjunctions" `Quick
      test_query_conj_builtin;
    Alcotest.test_case "query: empty conjunction" `Quick test_query_empty_conj
  ]
