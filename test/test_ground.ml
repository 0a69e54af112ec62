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
  Alcotest.(check int) "instances: 2 rules + 2 facts" 4 (List.length g);
  Alcotest.(check bool) "contains p(a) :- q(a)" true
    (List.mem (rule "p(a) :- q(a).") g)

let test_naive_ground_builtin_filter () =
  let g = G.naive (rules "big(X) :- n(X), X > 3. n(2). n(5).") in
  (* only the X=5 instance survives, with the builtin removed *)
  Alcotest.(check bool) "surviving instance loses builtin" true
    (List.mem (rule "big(5) :- n(5).") g);
  Alcotest.(check bool) "failing instance dropped" false
    (List.exists
       (fun r -> Rule.equal r (rule "big(2) :- n(2)."))
       g)

let test_naive_ground_arith_normalisation () =
  let g = G.naive (rules "p(X + 1) :- n(X). n(2).") in
  Alcotest.(check bool) "arithmetic evaluated in heads" true
    (List.mem (rule "p(3) :- n(2).") g)

let test_naive_ground_unsafe_fact () =
  (* The OV construction grounds non-ground negative facts over the whole
     universe. *)
  let g = G.naive (rules "-p(X). q(a). q(b).") in
  Alcotest.(check bool) "CWA fact expands" true
    (List.mem (rule "-p(a).") g && List.mem (rule "-p(b).") g)

let test_naive_ground_depth () =
  let src = rules "p(f(a)). q(X) :- p(X)." in
  let g0 = G.naive ~depth:0 src in
  let g1 = G.naive ~depth:1 src in
  (* depth 0: universe {a}; the fact p(f(a)) is already ground and kept. *)
  Alcotest.(check bool) "fact survives at depth 0" true
    (List.mem (rule "p(f(a)).") g0);
  Alcotest.(check bool) "depth 0 misses q(f(a)) :- p(f(a))" false
    (List.mem (rule "q(f(a)) :- p(f(a)).") g0);
  Alcotest.(check bool) "depth 1 has it" true
    (List.mem (rule "q(f(a)) :- p(f(a)).") g1)

let test_finalize_instance () =
  Alcotest.(check (option testable_rule)) "true builtin removed"
    (Some (rule "p(a) :- q(a)."))
    (R.finalize_instance (rule "p(a) :- q(a), 3 > 2."));
  Alcotest.(check (option testable_rule)) "false builtin kills" None
    (R.finalize_instance (rule "p(a) :- q(a), 2 > 3."));
  Alcotest.(check (option testable_rule)) "unevaluable comparison kills" None
    (R.finalize_instance (rule "p(a) :- a < b."))

(* ------------------------------------------------------------------ *)
(* Relevance-driven grounding (the classical oracle's)                *)
(* ------------------------------------------------------------------ *)

let test_relevant_prunes () =
  let src = rules "p(X) :- q(X). q(a). r(b)." in
  let naive = G.naive src in
  let relevant = R.relevant src in
  Alcotest.(check bool) "relevant subset of naive" true
    (List.for_all (fun r -> List.mem r naive) relevant);
  Alcotest.(check bool) "p(a) kept" true
    (List.mem (rule "p(a) :- q(a).") relevant);
  Alcotest.(check bool) "p(b) pruned (q(b) underivable)" false
    (List.mem (rule "p(b) :- q(b).") relevant);
  Alcotest.(check bool) "naive has p(b)" true
    (List.mem (rule "p(b) :- q(b).") naive)

let test_relevant_classical_negative_support () =
  (* Classical mode: a negative body literal needs a derived negative
     head. *)
  let src = rules "-q(a). p(X) :- -q(X)." in
  let g = R.relevant src in
  Alcotest.(check bool) "p(a) supported by -q(a)" true
    (List.mem (rule "p(a) :- -q(a).") g)

let test_relevant_naf_mode () =
  (* NAF mode: negative literals are assumed satisfiable. *)
  let src = rules "p(X) :- q(X), -r(X). q(a)." in
  let classical = R.relevant src in
  let naf = R.relevant ~naf:true src in
  Alcotest.(check bool) "classical prunes (no -r derivable)" false
    (List.mem (rule "p(a) :- q(a), -r(a).") classical);
  Alcotest.(check bool) "naf keeps" true
    (List.mem (rule "p(a) :- q(a), -r(a).") naf)

let test_relevant_recursive () =
  let src =
    rules
      "anc(X, Y) :- parent(X, Y). anc(X, Y) :- parent(X, Z), anc(Z, Y). \
       parent(a, b). parent(b, c)."
  in
  let g = R.relevant src in
  Alcotest.(check bool) "transitive instance found" true
    (List.mem (rule "anc(a, c) :- parent(a, b), anc(b, c).") g);
  (* No instance joins unreachable pairs in the first position. *)
  Alcotest.(check bool) "no unsupported join" false
    (List.exists
       (fun r -> Rule.equal r (rule "anc(c, a) :- parent(c, a)."))
       g)

let test_relevant_equals_naive_fixpoint () =
  (* For a positive program the minimal models computed from either
     grounding agree. *)
  let src =
    rules
      "e(1, 2). e(2, 3). e(3, 4). t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), \
       t(Z, Y)."
  in
  let m g =
    let p = Datalog.Nprog.of_rules g in
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
      (R.relevant (List.map snd (Ordered.Program.view ov id)))
  in
  let tagged =
    Oracle.Ground.flatten (Oracle.Ground.groups ov id)
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

(* ------------------------------------------------------------------ *)
(* The allocation gate                                                 *)
(* ------------------------------------------------------------------ *)

(* One cold-view viewpoint of the serving benchmark: the class chain
   k0 <- ... <- k5 and one individual with five entities, each stating
   its own trait true and the four others false — 135 ground instances
   over 100 atoms. *)
let servebench_view () =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "component k0 { alive(X) :- ent(X). f0(X) :- ent(X). pa(X) :- ent(X). \
     pb(X) :- ent(X). }\n";
  for i = 1 to 5 do
    Printf.bprintf b
      "component k%d extends k%d { f%d(X) :- f%d(X). -f%d(X) :- t%d(X). \
       g%d(X) :- f%d(X), alive(X).%s }\n"
      i (i - 1) i (i - 1) (i - 1) i i i
      (if i = 1 then " -pa(X) :- pb(X). -pb(X) :- pa(X)." else "")
  done;
  Buffer.add_string b "component o000 extends k5 {";
  for j = 1 to 5 do
    Printf.bprintf b " ent(e%d)." j;
    for i = 1 to 5 do
      Printf.bprintf b " %st%d(e%d)." (if i = j then "" else "-") i j
    done
  done;
  Buffer.add_string b " }\n";
  let p = program (Buffer.contents b) in
  (p, Ordered.Program.component_id_exn p "o000")

let test_allocation_gate () =
  let p, c = servebench_view () in
  let g = (Inc.Reground.ground p c).Inc.Reground.gop in
  Alcotest.(check int) "instances" 135 (Ordered.Gop.n_rules g);
  Alcotest.(check int) "atoms" 100 (Ordered.Gop.n_atoms g);
  let runs = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Inc.Reground.ground p c))
  done;
  let per_instance = (Gc.minor_words () -. w0) /. float_of_int (runs * 135) in
  Printf.printf "grounding a servebench view: %.1f minor words per instance\n"
    per_instance;
  if per_instance > 160. then
    Alcotest.failf "%.1f minor words per instance, over the gate of 160"
      per_instance

(* A rule whose variables all sit in the body puts every instance under
   one head: [s :- c(X), c(Y), c(Z)] over 30 constants has 27,000
   instances of [s].  Deduplication and the suppression rows must stay
   linear in them, so grounding it may take no longer than a few times
   the same instance count under 27,000 distinct heads, which no
   per-head scan can slow down (a scan of the head's earlier instances
   takes some seconds here). *)
let test_body_only_variables () =
  let facts = List.init 30 (fun i -> Printf.sprintf "c(k%d)." i) in
  let ground rules =
    let p = program ("component m { " ^ String.concat " " (facts @ rules) ^ " }") in
    let c = Ordered.Program.component_id_exn p "m" in
    let t0 = Unix.gettimeofday () in
    let g = Ordered.Gop.ground p c in
    (g, Unix.gettimeofday () -. t0)
  in
  let one_head, t_one = ground [ "s :- c(X), c(Y), c(Z)." ] in
  let many_heads, t_many = ground [ "s(X, Y, Z) :- c(X), c(Y), c(Z)." ] in
  Alcotest.(check int) "one head: instances" 27030 (Ordered.Gop.n_rules one_head);
  Alcotest.(check int) "many heads: instances" 27030
    (Ordered.Gop.n_rules many_heads);
  Printf.printf "27,000 instances: %.3f s under one head, %.3f s under many\n"
    t_one t_many;
  if t_one > (4. *. t_many) +. 0.1 then
    Alcotest.failf "one head: %.3f s, against %.3f s for distinct heads" t_one
      t_many;
  (* the same instances again, from a rule with its body reordered, are
     all duplicates; under a rule name of their own they are kept *)
  let dup, _ =
    ground [ "s :- c(X), c(Y), c(Z)."; "s :- c(Y), c(X), c(Z)." ]
  in
  Alcotest.(check int) "duplicates dropped" 27030 (Ordered.Gop.n_rules dup);
  let named, _ =
    ground [ "s :- c(X), c(Y), c(Z)."; "r1: s :- c(Y), c(X), c(Z)." ]
  in
  Alcotest.(check int) "a named rule keeps its own" 54030
    (Ordered.Gop.n_rules named)

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
      test_relevant_ordered_caveat;
    Alcotest.test_case "allocation gate: minor words per instance" `Quick
      test_allocation_gate;
    Alcotest.test_case "body-only variables ground in linear time" `Quick
      test_body_only_variables
  ]
