(* Section 4: negative programs — the 3-level version 3V(C), the direct
   Definition 11 semantics and their equivalence (Theorem 2), plus the
   paper's Examples 8 and 9. *)

open Logic
open Helpers
module Neg = Ordered.Negative

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let test_three_level_construction () =
  let c = rules "fly(X) :- bird(X). -fly(X) :- ground_animal(X). bird(tweety)." in
  let p = Neg.three_level c in
  Alcotest.(check (list string)) "components"
    [ "exceptions"; "general"; "cwa" ]
    (Array.to_list (Ordered.Program.component_names p));
  let poset = Ordered.Program.poset p in
  let id n = Ordered.Program.component_id_exn p n in
  Alcotest.(check bool) "exceptions < general" true
    (Ordered.Poset.lt poset (id "exceptions") (id "general"));
  Alcotest.(check bool) "general < cwa" true
    (Ordered.Poset.lt poset (id "general") (id "cwa"));
  Alcotest.(check bool) "exceptions < cwa" true
    (Ordered.Poset.lt poset (id "exceptions") (id "cwa"));
  (* C- holds exactly the negative rules. *)
  Alcotest.(check int) "one exception rule" 1
    (List.length (local_rules p (id "exceptions")));
  (* C+ holds the seminegative rules plus one reflexive rule per
     predicate. *)
  Alcotest.(check int) "general: 2 rules + 3 reflexive" 5
    (List.length (local_rules p (id "general")))

(* ------------------------------------------------------------------ *)
(* Example 8                                                           *)
(* ------------------------------------------------------------------ *)

let e8_rules =
  rules
    "fly(X) :- bird(X). -fly(X) :- ground_animal(X). \
     bird(pigeon). bird(penguin). ground_animal(penguin)."

let test_example8_two_level_poor () =
  (* Under the two-level (OV) semantics, the negative rule merely defeats
     the positive one: nothing can be said about the flying capabilities
     of a ground bird. *)
  let g = Ordered.Bridge.ground_ov e8_rules in
  let m = Ordered.Vfix.least_model g in
  Alcotest.check testable_value "fly(penguin) undefined" Interp.Undefined
    (Interp.value_lit m (lit "fly(penguin)"))

let test_example8_three_level () =
  (* Example 9's commentary: with 3V, "every ground animal which is also a
     bird does not fly".  The exception is already a skeptical (least
     model) consequence; the default "pigeons fly" additionally needs the
     closed-world component, which the reflexive rules suspend until a
     stable model commits to it. *)
  let m = Neg.least_model e8_rules in
  Alcotest.check testable_value "fly(penguin) false already in the least model"
    Interp.False
    (Interp.value_lit m (lit "fly(penguin)"));
  let stables = negative_stable_models e8_rules in
  Alcotest.(check bool) "some stable model" true (stables <> []);
  List.iter
    (fun s ->
      Alcotest.check testable_value "fly(penguin) false" Interp.False
        (Interp.value_lit s (lit "fly(penguin)"));
      Alcotest.check testable_value "fly(pigeon) true" Interp.True
        (Interp.value_lit s (lit "fly(pigeon)"));
      Alcotest.check testable_value "CWA: no unknown ground animals"
        Interp.False
        (Interp.value_lit s (lit "ground_animal(pigeon)")))
    stables

(* ------------------------------------------------------------------ *)
(* Example 9: colored                                                  *)
(* ------------------------------------------------------------------ *)

let colored_rules facts =
  rules
    ("colored(X) :- color(X), -colored(Y), X != Y. \
      -colored(X) :- ugly_color(X)." ^ facts)

let chosen m =
  List.filter_map
    (fun (l : Literal.t) ->
      if l.pol && String.equal l.atom.Atom.pred "colored" then
        Some (Atom.to_string l.atom)
      else None)
    (Interp.to_literals m)

let test_example9_choice () =
  (* With two non-ugly colors, each stable model selects exactly one. *)
  let stables = negative_stable_models (colored_rules " color(red). color(green).") in
  Alcotest.(check int) "two stable models" 2 (List.length stables);
  List.iter
    (fun m -> Alcotest.(check int) "exactly one chosen" 1 (List.length (chosen m)))
    stables

let test_example9_ugly_rejected () =
  let stables =
    negative_stable_models
      (colored_rules " color(red). color(brown). ugly_color(brown).")
  in
  List.iter
    (fun m ->
      Alcotest.check testable_value "brown never colored" Interp.False
        (Interp.value_lit m (lit "colored(brown)")))
    stables;
  Alcotest.(check bool) "some choice exists" true (stables <> [])

(* ------------------------------------------------------------------ *)
(* Definition 11: the direct semantics, and Theorem 2                  *)
(* ------------------------------------------------------------------ *)

let test_direct_model_exception_clause () =
  (* fly(tweety) :- bird(tweety) violates value(H) >= value(B) in a model
     where fly(tweety) is false, but the exception clause excuses it. *)
  let ground =
    Neg.ground_program
      (rules
         "fly(X) :- bird(X). -fly(X) :- heavy(X). bird(tweety). heavy(tweety).")
  in
  let m =
    interp [ "bird(tweety)"; "heavy(tweety)"; "-fly(tweety)" ]
  in
  Alcotest.(check bool) "model thanks to the exception" true
    (Neg.direct_is_model ground m);
  (* without the heavy fact in the interpretation the exception body is
     not true, so the same interpretation minus heavy is not a model *)
  let m2 = interp [ "bird(tweety)"; "-fly(tweety)" ] in
  Alcotest.(check bool) "no exception, no excuse" false
    (Neg.direct_is_model ground m2)

let test_direct_assumption_free () =
  let ground = Neg.ground_program (rules "a :- b. b :- a.") in
  Alcotest.(check bool) "{a, b} not assumption-free (positive loop)" false
    (Neg.direct_is_assumption_free ground (interp [ "a"; "b" ]));
  Alcotest.(check bool) "empty assumption-free" true
    (Neg.direct_is_assumption_free ground Interp.empty)

let test_theorem2_on_examples () =
  (* Definitions 10 and 11 agree on models and stable models for a batch
     of small negative programs. *)
  let srcs =
    [ "fly(X) :- bird(X). -fly(X) :- ground_animal(X). bird(t). ground_animal(t).";
      "a :- b. -a :- c. b. c.";
      "p. -p :- q. q.";
      "-p :- q. q :- p."
    ]
  in
  List.iter
    (fun src ->
      let c = rules src in
      let ground = Neg.ground_program c in
      let g3v = Neg.ground_3v c in
      let atoms =
        List.sort_uniq Atom.compare
          (List.concat_map
             (fun (r : Rule.t) ->
               (Rule.head r).Literal.atom
               :: List.map (fun (l : Literal.t) -> l.atom) (Rule.body r))
             ground)
      in
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Format.asprintf "models agree on %s / %a" src Interp.pp m)
            (Ordered.Model.is_model g3v m)
            (Neg.direct_is_model ground m))
        (all_interps atoms);
      Alcotest.check testable_interp_set
        ("stable models agree on " ^ src)
        (negative_stable_models c)
        (Neg.direct_stable_models ground))
    srcs

let suite =
  [ Alcotest.test_case "3V construction" `Quick test_three_level_construction;
    Alcotest.test_case "Example 8: two-level semantics is poor" `Quick
      test_example8_two_level_poor;
    Alcotest.test_case "Example 8/9: exceptions win under 3V" `Quick
      test_example8_three_level;
    Alcotest.test_case "Example 9: color choice" `Quick test_example9_choice;
    Alcotest.test_case "Example 9: ugly colors rejected" `Quick
      test_example9_ugly_rejected;
    Alcotest.test_case "Definition 11: exception clause" `Quick
      test_direct_model_exception_clause;
    Alcotest.test_case "Definition 11: assumption sets" `Quick
      test_direct_assumption_free;
    Alcotest.test_case "Theorem 2 on fixed programs" `Quick test_theorem2_on_examples
  ]
