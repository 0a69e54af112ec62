(* Documented deviations: places where the paper's stated results fail as
   literally written (the paper gives only proof sketches, and Theorem 2
   is stated "without any proof").  Each test pins down a concrete
   counterexample so the deviation is reproducible, and checks the
   corrected form our implementation uses.  EXPERIMENTS.md discusses
   all of them. *)

open Logic
open Helpers

(* ------------------------------------------------------------------ *)
(* Proposition 4, converse direction.

   The paper claims: M is a 3-valued founded model of C iff M is an
   assumption-free model of OV(C) in C.  The "only if" direction fails:
   for C = { p :- -q } the empty interpretation is a 3-valued model
   (U >= U) and trivially founded (no applied rules), yet it is not even
   a model of OV(C) in C — the closed-world fact -q is applicable and
   challenged by no rule with head q, so Definition 3(b) forces q to be
   false rather than undefined.  The "if" direction does hold and is
   property-tested in Test_props. *)
(* ------------------------------------------------------------------ *)

let test_prop4_converse_fails () =
  let c = rules "p :- -q." in
  let np = Datalog.Nprog.of_rules c in
  Alcotest.(check bool) "empty is a 3-valued model of C" true
    (Datalog.Threeval.is_three_valued_model np Interp.empty);
  Alcotest.(check bool) "empty is founded" true
    (Datalog.Threeval.is_founded np Interp.empty);
  let gov = Ordered.Bridge.ground_ov c in
  Alcotest.(check bool) "but empty is not a model of OV(C) in C" false
    (Ordered.Model.is_model gov Interp.empty);
  (* The intended (maximal) objects still agree — Corollary 1 survives. *)
  Alcotest.check testable_interp_set "stable models coincide anyway"
    (Datalog.Threeval.stable_models np)
    (Ordered.Budget.value (Ordered.Stable.stable_models gov))

(* ------------------------------------------------------------------ *)
(* Theorem 2 / Definition 11, literal exception clause.

   With C = { -p.  -q :- -q.  q. }, the interpretation {-p} is a model of
   3V(C) in C-: the fact q is applicable with q undefined, which
   Definition 3(b) allows because the exception -q :- -q is non-blocked
   (its body -q is undefined, not false) and overrules it.  The literal
   Definition 11 excuses a rule only through an exception with *true*
   body, so it would reject {-p}.  Our direct semantics implements the
   corrected clause (undefined head: non-blocked exception suffices), and
   then the equivalence holds (property-tested in Test_props). *)
(* ------------------------------------------------------------------ *)

let literal_def11_is_model ground_rules interp =
  List.for_all
    (fun (r : Rule.t) ->
      let hv = Interp.value_lit interp (Rule.head r) in
      let bv = Interp.value_conj interp (Rule.body r) in
      Interp.compare_value hv bv >= 0
      || (Interp.holds interp (Literal.neg (Rule.head r))
         && List.exists
              (fun (e : Rule.t) ->
                Literal.is_negative (Rule.head e)
                && Literal.equal (Rule.head e) (Literal.neg (Rule.head r))
                && Interp.value_conj interp (Rule.body e) = Interp.True)
              ground_rules))
    ground_rules

let test_theorem2_literal_fails () =
  let c = rules "-p. -q :- -q. q." in
  let ground = Ordered.Negative.ground_program c in
  let m = interp [ "-p" ] in
  (* Definition 10 accepts {-p}: *)
  Alcotest.(check bool) "{-p} is a model of 3V(C) in C-" true
    (Ordered.Negative.is_model c m);
  (* the literal Definition 11 rejects it: *)
  Alcotest.(check bool) "literal Definition 11 rejects {-p}" false
    (literal_def11_is_model ground m);
  (* the corrected clause accepts it: *)
  Alcotest.(check bool) "corrected Definition 11 accepts {-p}" true
    (Ordered.Negative.direct_is_model ground m)

(* ------------------------------------------------------------------ *)
(* Definition 11(b), assumption sets over I+ only.

   [SZ]'s assumption sets range over positive literals; under the
   corrected Definition 8 (above) that is too weak: for
   C = { p.  -p :- -p. }, the interpretation {-p} is a Definition-11
   model whose negative literal rests only on the self-supporting
   exception and on a closed-world fact that the (non-blocked) fact p.
   overrules — yet I+ is empty, so the literal Definition 11(b) finds no
   assumption set and would accept {-p} as stable.  The 3-level
   semantics (with the corrected enabled version) rejects it; our direct
   semantics extends assumption sets to negative literals and agrees. *)
(* ------------------------------------------------------------------ *)

let test_def11b_negative_assumptions () =
  let c = rules "p. -p :- -p." in
  let ground = Ordered.Negative.ground_program c in
  let m = interp [ "-p" ] in
  Alcotest.(check bool) "{-p} is a Definition-11 model" true
    (Ordered.Negative.direct_is_model ground m);
  Alcotest.(check bool) "3-level: {-p} is a model too" true
    (Ordered.Negative.is_model c m);
  Alcotest.(check bool) "3-level: but not assumption-free" false
    (Ordered.Negative.is_assumption_free c m);
  Alcotest.(check bool) "corrected direct semantics agrees" false
    (Ordered.Negative.direct_is_assumption_free ground m);
  (* the unique stable model keeps the explicit fact *)
  Alcotest.check testable_interp_set "stable models"
    [ interp [ "p" ] ]
    (negative_stable_models c);
  Alcotest.check testable_interp_set "direct stable models agree"
    [ interp [ "p" ] ]
    (Ordered.Negative.direct_stable_models ground)

(* The corrected clause changes nothing on the paper's own examples. *)
let test_corrected_clause_conservative () =
  let c =
    rules
      "fly(X) :- bird(X). -fly(X) :- ground_animal(X). bird(t). \
       ground_animal(t)."
  in
  let ground = Ordered.Negative.ground_program c in
  let good = interp [ "bird(t)"; "ground_animal(t)"; "-fly(t)" ] in
  Alcotest.(check bool) "paper's flying example still a model" true
    (Ordered.Negative.direct_is_model ground good);
  Alcotest.(check bool) "literal clause agrees here" true
    (literal_def11_is_model ground good)

(* ------------------------------------------------------------------ *)
(* Definition 8 / Theorem 1(a): the enabled version.

   Definition 8 takes C^e to be *all* applied rules.  In

     c0 < c1,   c0 = { -p.  -r :- -r. }   c1 = { -p.  -r.  r. }

   the interpretation M = {-p, -r} is a model in c0: the fact r. is
   overruled by the applied self-supporting rule -r :- -r.  The fact
   -r. in c1 is applied, so the literal C^e contains it and
   T^inf_{C^e}(0) = M, making M "assumption-free" by the literal Theorem
   1(a).  But -r. is *defeated* (by the fact r. in its own component),
   so Definition 6 discounts it, and {-r} — supported only by the
   defeated fact and by the self-loop — is an assumption set: the two
   sides of Theorem 1(a) disagree.  Our enabled version excludes
   suppressed rules, after which both sides say "not assumption-free"
   and the theorem holds (property-tested in Test_props). *)
(* ------------------------------------------------------------------ *)

let test_enabled_version_literal_fails () =
  let p =
    program
      {| component c0 { -p. -r :- -r. }
         component c1 { -p. -r. r. }
         order c0 < c1. |}
  in
  let g = ground_at p "c0" in
  let m = interp [ "-p"; "-r" ] in
  Alcotest.(check bool) "M is a model" true (Ordered.Model.is_model g m);
  (* {-r} is an assumption set by the literal Definition 6: *)
  Alcotest.(check bool) "{-r} is an assumption set" true
    (Ordered.Model.is_assumption_set g m [ lit "-r" ]);
  (* the literal Definition 8 (all applied rules) reproduces M, so the
     literal Theorem 1(a) calls it assumption-free: *)
  Alcotest.(check bool) "literal reading: assumption-free" true
    (Ordered.Model.is_assumption_free ~semantics:`Literal g m);
  (* the corrected enabled version excludes the defeated fact: *)
  let v, _ = Ordered.Gop.Values.of_interp g m in
  Alcotest.(check bool) "corrected C^e excludes the defeated fact" false
    (List.exists
       (fun i ->
         Rule.equal (Ordered.Gop.rule_src g i) (rule "-r.")
         && g.Ordered.Gop.rule_comp.(i)
            = Ordered.Program.component_id_exn p "c1")
       (Ordered.Model.enabled_version g v));
  Alcotest.(check bool) "corrected reading: not assumption-free" false
    (Ordered.Model.is_assumption_free g m)

let suite =
  [ Alcotest.test_case "Prop 4: converse direction fails" `Quick
      test_prop4_converse_fails;
    Alcotest.test_case "Def 8 / Thm 1(a): literal enabled version fails" `Quick
      test_enabled_version_literal_fails;
    Alcotest.test_case "Thm 2: literal Def 11 is not equivalent" `Quick
      test_theorem2_literal_fails;
    Alcotest.test_case "Def 11(b): negative assumptions" `Quick
      test_def11b_negative_assumptions;
    Alcotest.test_case "corrected clause is conservative" `Quick
      test_corrected_clause_conservative
  ]
