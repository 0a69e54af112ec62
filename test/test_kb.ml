(* Knowledge-base layer through its front end, [Kb] (the memoizing
   session): objects, inheritance, defaults/exceptions, versioning,
   cache invalidation. *)

open Logic
open Helpers

let check_q kb obj q expected =
  Alcotest.check testable_value q expected (Kb.query kb ~obj (lit q))

let basic_kb () =
  let kb = Kb.create () in
  Kb.define kb "animal"
    (rules "moves(X) :- animal(X). -flies(X) :- animal(X).");
  Kb.define kb ~isa:[ "animal" ] "bird"
    (rules "flies(X) :- bird(X), animal(X). animal(tweety). bird(tweety).");
  kb

let test_define_and_query () =
  let kb = basic_kb () in
  check_q kb "bird" "moves(tweety)" Interp.True;
  check_q kb "bird" "flies(tweety)" Interp.True;
  (* from the animal object's own viewpoint the bird rules are invisible *)
  check_q kb "animal" "flies(tweety)" Interp.Undefined;
  check_q kb "animal" "moves(tweety)" Interp.Undefined

let test_object_admin () =
  let kb = basic_kb () in
  Alcotest.(check (list string)) "objects" [ "animal"; "bird" ] (Kb.objects kb);
  Alcotest.(check (list string)) "parents" [ "animal" ] (Kb.parents kb "bird");
  Alcotest.(check int) "rules" 2 (List.length (Kb.rules kb "animal"));
  (match Kb.define kb "animal" [] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate object");
  match Kb.define kb ~isa:[ "nope" ] "x" [] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown parent"

let test_mutation_invalidates_cache () =
  let kb = basic_kb () in
  check_q kb "bird" "moves(tweety)" Interp.True;
  Kb.add_rule_src kb ~obj:"bird" "-moves(X) :- sleeping(X).";
  Kb.add_rule kb ~obj:"bird" (Rule.fact (lit "sleeping(tweety)"));
  check_q kb "bird" "moves(tweety)" Interp.False;
  Alcotest.(check bool) "remove rule" true
    (Kb.remove_rule kb ~obj:"bird" (rule "-moves(X) :- sleeping(X)."));
  Alcotest.(check bool) "remove again fails" false
    (Kb.remove_rule kb ~obj:"bird" (rule "-moves(X) :- sleeping(X)."));
  check_q kb "bird" "moves(tweety)" Interp.True

let test_load () =
  let kb = Kb.create () in
  Kb.load kb
    {| component base { p. }
       component derived extends base { q :- p. } |};
  check_q kb "derived" "q" Interp.True;
  Alcotest.(check (list string)) "parents wired" [ "base" ]
    (Kb.parents kb "derived")

let test_versioning () =
  let kb = Kb.create () in
  Kb.define kb "tax"
    (rules "rate(10). deductible(X) :- donation(X). donation(church).");
  let v2 = Kb.new_version kb ~rules:(rules "-rate(10). rate(12).") "tax" in
  Alcotest.(check string) "name" "tax@2" v2;
  Alcotest.(check string) "latest" v2
    (Kb.Store.latest_version (Kb.store kb) "tax");
  check_q kb "tax" "rate(10)" Interp.True;
  check_q kb v2 "rate(10)" Interp.False;
  check_q kb v2 "rate(12)" Interp.True;
  (* inherited rules still apply *)
  check_q kb v2 "deductible(church)" Interp.True;
  let v3 = Kb.new_version kb "tax" in
  Alcotest.(check string) "chained below v2" "tax@3" v3;
  Alcotest.(check (list string)) "all versions" [ "tax"; "tax@2"; "tax@3" ]
    (Kb.versions kb "tax");
  check_q kb v3 "rate(12)" Interp.True

let test_stable_and_explain () =
  let kb = Kb.create () in
  Kb.define kb "o" (rules "a. -a.");
  Alcotest.(check int) "one stable model" 1
    (List.length (Ordered.Budget.value (Kb.stable_models kb ~obj:"o")));
  match Kb.explain kb ~obj:"o" (lit "a") with
  | Ordered.Explain.Unsupported { candidates; _ } ->
    Alcotest.(check int) "one candidate rule" 1 (List.length candidates)
  | _ -> Alcotest.fail "expected Unsupported"

let test_query_requires_ground () =
  let kb = basic_kb () in
  match Kb.query kb ~obj:"bird" (lit "flies(X)") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-ground query should be rejected"

let test_diamond_inheritance () =
  let kb = Kb.create () in
  Kb.define kb "top" (rules "p.");
  Kb.define kb ~isa:[ "top" ] "left" (rules "-p.");
  Kb.define kb ~isa:[ "top" ] "right" (rules "q :- p.");
  Kb.define kb ~isa:[ "left"; "right" ] "bottom" (rules "");
  (* left's -p overrules top's p from bottom's viewpoint *)
  check_q kb "bottom" "p" Interp.False;
  (* right alone still sees p *)
  check_q kb "right" "p" Interp.True;
  check_q kb "right" "q" Interp.True;
  (* and bottom inherits right's rule, now blocked *)
  check_q kb "bottom" "q" Interp.Undefined

let test_to_source_roundtrip () =
  let kb = Kb.create () in
  Kb.define kb "base" (rules "p(a). q(X) :- p(X).");
  Kb.define kb ~isa:[ "base" ] "derived" (rules "-q(a).");
  let v = Kb.new_version kb ~rules:(rules "q(a).") "derived" in
  let src = Kb.to_source kb in
  let kb2 = Kb.create () in
  Kb.load kb2 src;
  Alcotest.(check (list string)) "objects survive"
    (Kb.objects kb) (Kb.objects kb2);
  List.iter
    (fun o ->
      Alcotest.(check (list string)) ("parents of " ^ o) (Kb.parents kb o)
        (Kb.parents kb2 o))
    (Kb.objects kb);
  (* semantics survives too, version names (with @) included *)
  check_q kb2 v "q(a)" (Kb.query kb ~obj:v (lit "q(a)"))

let suite =
  [ Alcotest.test_case "define and query" `Quick test_define_and_query;
    Alcotest.test_case "object administration" `Quick test_object_admin;
    Alcotest.test_case "mutation invalidates cache" `Quick
      test_mutation_invalidates_cache;
    Alcotest.test_case "load source" `Quick test_load;
    Alcotest.test_case "versioning" `Quick test_versioning;
    Alcotest.test_case "stable models and explanations" `Quick
      test_stable_and_explain;
    Alcotest.test_case "ground queries only" `Quick test_query_requires_ground;
    Alcotest.test_case "diamond inheritance" `Quick test_diamond_inheritance;
    Alcotest.test_case "to_source round-trip" `Quick test_to_source_roundtrip
  ]

let test_errors () =
  let kb = Kb.create () in
  (match Kb.add_rule kb ~obj:"ghost" (rule "p.") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown object must fail");
  Kb.define kb "a" [];
  (match Kb.load kb "component a { p. }" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate load must fail");
  match Kb.new_version kb "ghost" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "versioning unknown object must fail"

let suite =
  suite @ [ Alcotest.test_case "error handling" `Quick test_errors ]
