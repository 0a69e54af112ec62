(* Section 3: the OV / EV bridges to classical logic programming
   (Example 6, Example 7, unit instances of Propositions 3-5 and
   Corollary 1; the property-based versions are in Test_props). *)

open Logic
open Helpers
module B = Ordered.Bridge
module N = Datalog.Nprog

let nprog src =
  N.of_rules (Ground.Grounder.naive (rules src))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let test_ov_construction () =
  let c = rules "anc(X, Y) :- parent(X, Y). anc(X, Y) :- parent(X, Z), anc(Z, Y). parent(a, b)." in
  let ov = B.ov c in
  Alcotest.(check (list string)) "two components" [ "main"; "cwa" ]
    (Array.to_list (Ordered.Program.component_names ov));
  Alcotest.(check bool) "main < cwa" true
    (Ordered.Poset.lt (Ordered.Program.poset ov)
       (Ordered.Program.component_id_exn ov "main")
       (Ordered.Program.component_id_exn ov "cwa"));
  (* Example 6: the CWA component is the reduced form: one non-ground
     negative fact per predicate. *)
  let cwa = local_rules ov (Ordered.Program.component_id_exn ov "cwa") in
  Alcotest.(check int) "reduced CWA: 2 predicates" 2 (List.length cwa);
  Alcotest.(check bool) "-anc(X0, X1) present" true
    (List.exists (fun r -> Rule.equal r (rule "-anc(X0, X1).")) cwa)

let test_ev_construction () =
  let c = rules "p(a). q(X) :- p(X)." in
  let ev = B.ev c in
  let main = local_rules ev (Ordered.Program.component_id_exn ev "main") in
  Alcotest.(check bool) "reflexive rule for p" true
    (List.exists (fun r -> Rule.equal r (rule "p(X0) :- p(X0).")) main);
  Alcotest.(check bool) "reflexive rule for q" true
    (List.exists (fun r -> Rule.equal r (rule "q(X0) :- q(X0).")) main)

let test_builtins_excluded_from_cwa () =
  let c = rules "p(X) :- q(X), X > 1. q(2)." in
  let ov = B.ov c in
  let cwa = local_rules ov (Ordered.Program.component_id_exn ov "cwa") in
  Alcotest.(check int) "no CWA rule for >" 2 (List.length cwa)

(* ------------------------------------------------------------------ *)
(* Example 6: ancestor                                                 *)
(* ------------------------------------------------------------------ *)

let ancestor_src =
  "anc(X, Y) :- parent(X, Y). anc(X, Y) :- parent(X, Z), anc(Z, Y). \
   parent(a, b). parent(b, c)."

let test_example6_ancestor () =
  let g = B.ground_ov (rules ancestor_src) in
  let m = Ordered.Vfix.least_model g in
  (* the least model is total and matches the classical minimal model with
     CWA *)
  List.iter
    (fun (q, expected) ->
      Alcotest.check testable_value q expected (Interp.value_lit m (lit q)))
    [ ("anc(a, b)", Interp.True); ("anc(a, c)", Interp.True);
      ("anc(b, c)", Interp.True); ("anc(c, a)", Interp.False);
      ("anc(a, a)", Interp.False); ("parent(a, c)", Interp.False)
    ];
  Alcotest.(check bool) "total" true (Ordered.Exhaustive.is_total g m)

let test_example6_matches_datalog () =
  let g = B.ground_ov (rules ancestor_src) in
  let m = Ordered.Vfix.least_model g in
  let p = nprog ancestor_src in
  let classical = N.decode_mask p (Datalog.Consequence.lfp p) in
  (* every classically-derived atom is true in the ordered least model,
     and every other program atom is false (explicit CWA) *)
  Array.iter
    (fun a ->
      let expected =
        if Atom.Set.mem a classical then Interp.True else Interp.False
      in
      Alcotest.check testable_value (Atom.to_string a) expected
        (Interp.value m a))
    p.N.atoms

(* ------------------------------------------------------------------ *)
(* Example 7: p :- -p                                                  *)
(* ------------------------------------------------------------------ *)

let test_example7 () =
  let c = rules "p :- -p." in
  (* {p} is a 3-valued model of C ... *)
  let np = nprog "p :- -p." in
  Alcotest.(check bool) "{p} 3-valued model of C" true
    (Datalog.Threeval.is_three_valued_model np (interp [ "p" ]));
  (* ... but not a model of OV(C) in C ... *)
  let gov = B.ground_ov c in
  Alcotest.(check bool) "{p} not a model of OV(C)" false
    (Ordered.Model.is_model gov (interp [ "p" ]));
  (* ... while it is a model of EV(C) (Proposition 5a). *)
  let gev = B.ground_ev c in
  Alcotest.(check bool) "{p} is a model of EV(C)" true
    (Ordered.Model.is_model gev (interp [ "p" ]))

(* ------------------------------------------------------------------ *)
(* Corollary 1 on a classic instance                                   *)
(* ------------------------------------------------------------------ *)

let test_corollary1_even_loop () =
  let src = "p :- -q. q :- -p." in
  let g = B.ground_ov (rules src) in
  let ordered_stables = Ordered.Budget.value (Ordered.Stable.stable_models g) in
  Alcotest.check testable_interp_set "stable models via OV"
    [ interp [ "p"; "-q" ]; interp [ "q"; "-p" ] ]
    ordered_stables;
  let sz = Datalog.Threeval.stable_models (nprog src) in
  Alcotest.check testable_interp_set "SZ stable models agree" sz ordered_stables

let test_prop5d_ev_stables () =
  let src = "p :- -q. q :- -p." in
  Alcotest.check testable_interp_set "OV and EV stable models coincide"
    (Ordered.Budget.value (Ordered.Stable.stable_models (B.ground_ov (rules src))))
    (Ordered.Budget.value (Ordered.Stable.stable_models (B.ground_ev (rules src))))

let suite =
  [ Alcotest.test_case "OV construction" `Quick test_ov_construction;
    Alcotest.test_case "EV construction" `Quick test_ev_construction;
    Alcotest.test_case "builtins excluded from CWA" `Quick
      test_builtins_excluded_from_cwa;
    Alcotest.test_case "Example 6: ancestor via OV" `Quick test_example6_ancestor;
    Alcotest.test_case "Example 6: agrees with classical datalog" `Quick
      test_example6_matches_datalog;
    Alcotest.test_case "Example 7: p :- -p" `Quick test_example7;
    Alcotest.test_case "Corollary 1: even loop" `Quick test_corollary1_even_loop;
    Alcotest.test_case "Proposition 5(d): EV stables" `Quick test_prop5d_ev_stables
  ]
