(* Unit tests for the rule-preference subsystem: surface syntax, spec
   validation (typed Diag errors), the compiled route and the naive
   oracle, on small hand-checked programs. *)

open Logic
open Helpers
module B = Ordered.Budget
module D = Ordered.Diag

let v = B.value
let check_set = Alcotest.check testable_interp_set

let spec_of ?(prefs = []) src =
  let prog = program src in
  Prefer.Spec.make prog 0 prefs

let compiled spec =
  v (Solve.Kernel.stable_models (Prefer.Compile.gop (Prefer.Compile.compile spec)))
let naive spec = v (Oracle.Prefer.preferred_models spec)

(* ------------------------------------------------------------------ *)
(* Surface syntax                                                      *)
(* ------------------------------------------------------------------ *)

let test_parse_named () =
  let r = Lang.Parser.parse_rule "nf : -fly(X) :- penguin(X)." in
  Alcotest.(check (option string)) "name" (Some "nf") (Rule.name r);
  Alcotest.(check string) "round trip" "nf : -fly(X) :- penguin(X)."
    (Rule.to_string r);
  let r2 = Lang.Parser.parse_rule (Rule.to_string r) in
  Alcotest.check testable_rule "reparse" r r2;
  (* a named rule differs from its unnamed twin *)
  let bare = Lang.Parser.parse_rule "-fly(X) :- penguin(X)." in
  Alcotest.(check bool) "name is identity" false (Rule.equal r bare)

let test_parse_prefer () =
  let ast = Lang.Parser.parse_file "prefer a > b, c > d. prefer e > f." in
  Alcotest.(check (list (pair string string)))
    "pairs"
    [ ("a", "b"); ("c", "d"); ("e", "f") ]
    (Lang.Ast.prefer_pairs ast);
  (* pp round trip *)
  let printed = Format.asprintf "%a" Lang.Ast.pp ast in
  Alcotest.(check (list (pair string string)))
    "pp round trip"
    [ ("a", "b"); ("c", "d"); ("e", "f") ]
    (Lang.Ast.prefer_pairs (Lang.Parser.parse_file printed))

let test_parse_errors () =
  let raises src =
    match Lang.Parser.parse_file src with
    | exception (Lang.Parser.Error _ | Lang.Lexer.Error _) -> ()
    | _ -> Alcotest.fail ("parser should reject " ^ src)
  in
  raises "prefer a < b.";
  raises "prefer a > .";
  raises "prefer > b.";
  raises "r1 : : p."

(* ------------------------------------------------------------------ *)
(* Spec validation                                                     *)
(* ------------------------------------------------------------------ *)

let penguins =
  {| b : bird(tweety).
     p : penguin(tweety).
     f : fly(X) :- bird(X).
     nf : -fly(X) :- penguin(X). |}

let test_validation () =
  (* unknown rule name *)
  (match spec_of ~prefs:[ ("nf", "nosuch") ] penguins with
  | exception D.Error (D.Invalid_input _) -> ()
  | _ -> Alcotest.fail "unknown rule name should be rejected");
  (* self-preference *)
  (match spec_of ~prefs:[ ("f", "f") ] penguins with
  | exception D.Error (D.Preference_cycle { cycle }) ->
    Alcotest.(check (list string)) "self cycle" [ "f"; "f" ] cycle
  | _ -> Alcotest.fail "self-preference should be rejected");
  (* cycle among prefs *)
  (match spec_of ~prefs:[ ("f", "nf"); ("nf", "f") ] penguins with
  | exception D.Error (D.Preference_cycle _) -> ()
  | _ -> Alcotest.fail "pref cycle should be rejected");
  (* duplicate rule name *)
  (match spec_of "r : p. r : q." with
  | exception D.Error (D.Invalid_input _) -> ()
  | _ -> Alcotest.fail "duplicate rule name should be rejected");
  (* a preference against the component order closes a cycle *)
  let contra =
    {| component low extends high { a : p. }
       component high { b : -p. } |}
  in
  (match
     Prefer.Spec.make (program contra)
       (Ordered.Program.component_id_exn (program contra) "low")
       [ ("b", "a") ]
   with
  | exception D.Error (D.Preference_cycle _) -> ()
  | _ -> Alcotest.fail "pref against component order should be rejected");
  (* check_pairs alone: cycle without a program *)
  match Prefer.Spec.check_pairs [ ("a", "b"); ("b", "c"); ("c", "a") ] with
  | exception D.Error (D.Preference_cycle _) -> ()
  | _ -> Alcotest.fail "check_pairs should reject a cycle"

(* ------------------------------------------------------------------ *)
(* Semantics on hand-checked programs                                  *)
(* ------------------------------------------------------------------ *)

let test_penguins () =
  (* without preferences f and nf defeat each other: fly stays undefined *)
  let base = interp [ "bird(tweety)"; "penguin(tweety)" ] in
  let spec0 = spec_of penguins in
  check_set "no prefs: compiled = plain" [ base ] (compiled spec0);
  check_set "no prefs: naive agrees" [ base ] (naive spec0);
  (* nf > f: the exception overrules the default *)
  let spec = spec_of ~prefs:[ ("nf", "f") ] penguins in
  let m = interp [ "bird(tweety)"; "penguin(tweety)"; "-fly(tweety)" ] in
  check_set "nf > f: compiled" [ m ] (compiled spec);
  check_set "nf > f: naive" [ m ] (naive spec);
  (* the opposite preference restores the default *)
  let spec' = spec_of ~prefs:[ ("f", "nf") ] penguins in
  let m' = interp [ "bird(tweety)"; "penguin(tweety)"; "fly(tweety)" ] in
  check_set "f > nf: compiled" [ m' ] (compiled spec');
  check_set "f > nf: naive" [ m' ] (naive spec')

let test_transitive () =
  (* preference is transitive through a chain of prefs *)
  let src = "a : p. b : -p. c : p. prefer a > b, b > c." in
  let prog = program src in
  let ast = Lang.Parser.parse_file src in
  let spec = Prefer.Spec.make prog 0 (Lang.Ast.prefer_pairs ast) in
  let m = interp [ "p" ] in
  check_set "chain: compiled" [ m ] (compiled spec);
  check_set "chain: naive" [ m ] (naive spec)

let test_combined_order () =
  (* a pref edge composes with the component order transitively:
     r_low < r_mid (object), r_mid < r_high (pref) => r_low wins *)
  let src =
    {| component low extends mid { a : p. }
       component mid { b : q. }
       component high { c : -p. } |}
  in
  let prog = program src in
  let low = Ordered.Program.component_id_exn prog "low" in
  (* no order between low/high objects; prefer b > c links them *)
  match Ordered.Program.view prog low with
  | _ ->
    (* high is not in low's view (unrelated), so this checks the
       unknown-name diagnostic rather than silently ignoring c *)
    (match Prefer.Spec.make prog low [ ("b", "c") ] with
    | exception D.Error (D.Invalid_input _) -> ()
    | _ -> Alcotest.fail "rule outside the view should be unknown")

let test_same_head_three_ways () =
  (* three rules on one atom: a > b leaves c still defeating both *)
  let src = "a : p. b : -p. c : -p. prefer a > b." in
  let spec = Prefer.Spec.make (program src) 0 [ ("a", "b") ] in
  let m = interp [] in
  (* a overrules b, but c still defeats a: everything undefined *)
  check_set "partial pref: compiled" [ m ] (compiled spec);
  check_set "partial pref: naive" [ m ] (naive spec);
  let spec2 = Prefer.Spec.make (program src) 0 [ ("a", "b"); ("a", "c") ] in
  let m2 = interp [ "p" ] in
  check_set "full pref: compiled" [ m2 ] (compiled spec2);
  check_set "full pref: naive" [ m2 ] (naive spec2)

let test_multiple_models () =
  (* Example 5's two stable models survive an unrelated preference *)
  let src =
    {| component c2 { a. b. c. }
       component c1 extends c2 {
         -a :- b, c.  -b :- a.  -b :- -b.
         x : r.  y : -r.
       } |}
  in
  let prog = program src in
  let spec =
    Prefer.Spec.make prog
      (Ordered.Program.component_id_exn prog "c1")
      [ ("x", "y") ]
  in
  let ms =
    [ interp [ "-a"; "b"; "c"; "r" ]; interp [ "a"; "-b"; "c"; "r" ] ]
  in
  check_set "two preferred models: compiled" ms (compiled spec);
  check_set "two preferred models: naive" ms (naive spec)

let suite =
  [ Alcotest.test_case "parse named rules" `Quick test_parse_named;
    Alcotest.test_case "parse prefer declarations" `Quick test_parse_prefer;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "spec validation" `Quick test_validation;
    Alcotest.test_case "penguins with preferences" `Quick test_penguins;
    Alcotest.test_case "transitive preference chain" `Quick test_transitive;
    Alcotest.test_case "view scoping of names" `Quick test_combined_order;
    Alcotest.test_case "three rules on one atom" `Quick
      test_same_head_three_ways;
    Alcotest.test_case "preference keeps unrelated models" `Quick
      test_multiple_models
  ]
