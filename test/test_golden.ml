(* Golden enumeration tests: exact model *lists* (contents and order, not
   just counts or sets) for the paper's figure programs and a Section-5
   knowledge base, pinned for the branch-and-propagate search, the naive
   oracle (test/oracle) and the compiled flat-array kernel (whose
   contract is the *pruned* order exactly; it is the one engine behind
   Kb, the session cache, the server and [olp models]).

   The lists encode the documented search-order contract — first
   discovered first, least model first for assumption-free enumerations —
   so an accidental change to branch ordering, propagation order or the
   accumulator (e.g. a dropped [List.rev]) fails here even when the model
   *set* is still right. *)

open Logic
open Helpers
module S = Ordered.Stable
module E = Ordered.Exhaustive
module K = Solve.Kernel
module O = Oracle

let v = Ordered.Budget.value
let check_list = Alcotest.check (Alcotest.list testable_interp)

(* All six enumerations of a program with a single (total) stable model
   return exactly that one model. *)
let check_singleton name g m =
  check_list (name ^ ": af pruned") [ m ] (v (S.assumption_free_models g));
  check_list (name ^ ": af naive") [ m ] (v (O.Stable.assumption_free_models g));
  check_list (name ^ ": af compiled") [ m ] (v (K.assumption_free_models g));
  check_list (name ^ ": stable pruned") [ m ] (v (S.stable_models g));
  check_list (name ^ ": stable naive") [ m ] (v (O.Stable.stable_models g));
  check_list (name ^ ": stable compiled") [ m ] (v (K.stable_models g));
  check_list (name ^ ": total pruned") [ m ] (v (E.total_models g));
  check_list (name ^ ": total naive") [ m ] (v (O.Exhaustive.total_models g));
  check_list (name ^ ": total compiled") [ m ] (v (K.total_models g))

(* ------------------------------------------------------------------ *)
(* Figure 1: P1 (penguins)                                             *)
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

let test_fig1 () =
  let p = program p1_src in
  check_singleton "P1/c1"
    (ground_at p "c1")
    (interp
       [ "bird(penguin)"; "bird(pigeon)"; "-fly(penguin)"; "fly(pigeon)";
         "ground_animal(penguin)"; "-ground_animal(pigeon)"
       ]);
  check_singleton "P1/c2"
    (ground_at p "c2")
    (interp
       [ "bird(penguin)"; "bird(pigeon)"; "fly(penguin)"; "fly(pigeon)";
         "-ground_animal(penguin)"; "-ground_animal(pigeon)"
       ])

(* ------------------------------------------------------------------ *)
(* Figure 2: P2 (mutual defeat)                                        *)
(* ------------------------------------------------------------------ *)

let p2_src =
  {| component c3 { rich(mimmo). -poor(X) :- rich(X). }
     component c2 { poor(mimmo). -rich(X) :- poor(X). }
     component c1 extends c2, c3 { free_ticket(X) :- poor(X). } |}

let test_fig2 () =
  let g = ground_at (program p2_src) "c1" in
  check_list "P2/c1: af pruned" [ Interp.empty ]
    (v (S.assumption_free_models g));
  check_list "P2/c1: af naive" [ Interp.empty ]
    (v (O.Stable.assumption_free_models g));
  check_list "P2/c1: af compiled" [ Interp.empty ]
    (v (K.assumption_free_models g));
  check_list "P2/c1: stable pruned" [ Interp.empty ] (v (S.stable_models g));
  check_list "P2/c1: stable naive" [ Interp.empty ]
    (v (O.Stable.stable_models g));
  check_list "P2/c1: stable compiled" [ Interp.empty ] (v (K.stable_models g));
  (* Example 4: P2 has no total model at all. *)
  check_list "P2/c1: total pruned" [] (v (E.total_models g));
  check_list "P2/c1: total naive" [] (v (O.Exhaustive.total_models g));
  check_list "P2/c1: total compiled" [] (v (K.total_models g))

(* ------------------------------------------------------------------ *)
(* Figure 3: the loan program, scenarios 2 and 3                       *)
(* ------------------------------------------------------------------ *)

let loan_src facts =
  {| component c2 { take_loan :- inflation(X), X > 11. }
     component c4 { -take_loan :- loan_rate(X), X > 14. }
     component c3 extends c4 {
       take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
     }
     component c1 extends c2, c3 { |}
  ^ facts ^ " }"

let check_af_and_stable name g m =
  check_list (name ^ ": af pruned") [ m ] (v (S.assumption_free_models g));
  check_list (name ^ ": af naive") [ m ] (v (O.Stable.assumption_free_models g));
  check_list (name ^ ": af compiled") [ m ] (v (K.assumption_free_models g));
  check_list (name ^ ": stable pruned") [ m ] (v (S.stable_models g));
  check_list (name ^ ": stable naive") [ m ] (v (O.Stable.stable_models g));
  check_list (name ^ ": stable compiled") [ m ] (v (K.stable_models g))

let test_fig3 () =
  (* Scenario 2: the experts defeat each other, so take_loan stays
     undefined even in every assumption-free model. *)
  check_af_and_stable "loan/s2"
    (ground_at (program (loan_src "inflation(12). loan_rate(16).")) "c1")
    (interp [ "inflation(12)"; "loan_rate(16)" ]);
  (* Scenario 3: Expert3 overrules Expert4 and take_loan is recovered. *)
  check_af_and_stable "loan/s3"
    (ground_at (program (loan_src "inflation(19). loan_rate(16).")) "c1")
    (interp [ "inflation(19)"; "loan_rate(16)"; "take_loan" ])

(* ------------------------------------------------------------------ *)
(* Example 5: P5 — the engines enumerate the same sets in their own    *)
(* documented orders                                                   *)
(* ------------------------------------------------------------------ *)

let p5_src =
  {| component c2 { a. b. c. }
     component c1 extends c2 { -a :- b, c. -b :- a. -b :- -b. } |}

let test_example5 () =
  let g = ground_at (program p5_src) "c1" in
  let m_least = interp [ "c" ] in
  let m_b = interp [ "-a"; "b"; "c" ] in
  let m_a = interp [ "a"; "-b"; "c" ] in
  check_list "P5: af pruned (least model first)"
    [ m_least; m_b; m_a ]
    (v (S.assumption_free_models g));
  check_list "P5: af naive (least model first, other order)"
    [ m_least; m_a; m_b ]
    (v (O.Stable.assumption_free_models g));
  (* the compiled kernel reproduces the pruned order exactly *)
  check_list "P5: af compiled (= pruned order)"
    [ m_least; m_b; m_a ]
    (v (K.assumption_free_models g));
  check_list "P5: stable pruned" [ m_b; m_a ] (v (S.stable_models g));
  check_list "P5: stable naive" [ m_a; m_b ] (v (O.Stable.stable_models g));
  check_list "P5: stable compiled (= pruned order)" [ m_b; m_a ]
    (v (K.stable_models g));
  check_list "P5: total pruned" [ m_b; m_a ] (v (E.total_models g));
  check_list "P5: total naive" [ m_a; m_b ] (v (O.Exhaustive.total_models g));
  check_list "P5: total compiled (= pruned order)" [ m_b; m_a ]
    (v (K.total_models g));
  (* limit = the first k of each engine's own order *)
  check_list "P5: af pruned limit 2" [ m_least; m_b ]
    (v (S.assumption_free_models ~limit:2 g));
  check_list "P5: af naive limit 2" [ m_least; m_a ]
    (v (O.Stable.assumption_free_models ~limit:2 g));
  check_list "P5: af compiled limit 2" [ m_least; m_b ]
    (v (K.assumption_free_models ~limit:2 g))

(* ------------------------------------------------------------------ *)
(* Section 5: a knowledge base with inheritance and versioning         *)
(* ------------------------------------------------------------------ *)

let test_kb () =
  let r = Lang.Parser.parse_rule in
  let kb = Kb.create () in
  Kb.define kb "policy"
    [ r "bonus(X) :- employee(X).";
      r "-remote(X) :- employee(X).";
      r "employee(ann).";
      r "employee(bob)."
    ];
  Kb.define kb ~isa:[ "policy" ] "engineering" [ r "remote(ann)." ];
  let m_eng =
    interp
      [ "bonus(ann)"; "bonus(bob)"; "employee(ann)"; "employee(bob)";
        "remote(ann)"; "-remote(bob)"
      ]
  in
  let g = Kb.gop kb ~obj:"engineering" in
  check_list "kb: af pruned" [ m_eng ] (v (S.assumption_free_models g));
  check_list "kb: af naive" [ m_eng ] (v (O.Stable.assumption_free_models g));
  check_list "kb: af (kernel)" [ m_eng ]
    (v (Kb.assumption_free_models kb ~obj:"engineering"));
  check_list "kb: stable (kernel)" [ m_eng ]
    (v (Kb.stable_models kb ~obj:"engineering"));
  (* A revision freezing bonuses overrules the inherited default. *)
  let v2 =
    Kb.new_version kb ~rules:[ r "-bonus(X) :- employee(X)." ] "engineering"
  in
  let m_v2 =
    interp
      [ "-bonus(ann)"; "-bonus(bob)"; "employee(ann)"; "employee(bob)";
        "remote(ann)"; "-remote(bob)"
      ]
  in
  check_list "kb: stable after revision" [ m_v2 ]
    (v (Kb.stable_models kb ~obj:v2));
  check_list "kb: stable after revision (naive)" [ m_v2 ]
    (v (O.Stable.stable_models (Kb.gop kb ~obj:v2)));
  (* A rule-less object grounds to no atoms at all: the least model {}
     is its one assumption-free, stable and total model, for every
     engine and through the store. *)
  Kb.define kb "blank" [];
  check_singleton "kb: rule-less object" (Kb.gop kb ~obj:"blank") Interp.empty;
  check_list "kb: rule-less object (kernel, via Kb)" [ Interp.empty ]
    (v (Kb.stable_models kb ~obj:"blank"));
  check_list "kb: rule-less object af (kernel, via Kb)" [ Interp.empty ]
    (v (Kb.assumption_free_models kb ~obj:"blank"))

let suite =
  [ Alcotest.test_case "F1: penguin model lists" `Quick test_fig1;
    Alcotest.test_case "F2: mutual-defeat model lists" `Quick test_fig2;
    Alcotest.test_case "F3: loan scenario model lists" `Quick test_fig3;
    Alcotest.test_case "E5: P5 enumeration orders" `Quick test_example5;
    Alcotest.test_case "KB: inheritance and versioning model lists" `Quick
      test_kb
  ]
