(* Unit tests for the classical-semantics substrate: minimal models,
   stratification, perfect models, well-founded and stable semantics,
   3-valued and founded models. *)

open Logic
open Helpers
module N = Datalog.Nprog
module C = Datalog.Consequence
module W = Datalog.Wellfounded
module S = Datalog.Stable
module T = Datalog.Threeval

let nprog src =
  N.of_rules (Ground.Grounder.naive ~depth:0 (rules src))

let atoms_of_names names =
  Atom.Set.of_list (List.map (fun s -> (lit s).Literal.atom) names)

let check_set name expected actual =
  Alcotest.(check bool)
    (name ^ ": "
    ^ String.concat ", " (List.map Atom.to_string (Atom.Set.elements actual)))
    true
    (Atom.Set.equal expected actual)

(* ------------------------------------------------------------------ *)
(* Minimal models of positive programs                                 *)
(* ------------------------------------------------------------------ *)

let test_lfp_positive () =
  let p = nprog "e(1, 2). e(2, 3). t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y)." in
  let m = N.decode_mask p (C.lfp p) in
  check_set "transitive closure"
    (atoms_of_names [ "e(1, 2)"; "e(2, 3)"; "t(1, 2)"; "t(2, 3)"; "t(1, 3)" ])
    m

let test_lfp_vs_naive () =
  let progs =
    [ "p :- q. q :- r. r.";
      "a :- b. b :- a. c.";
      "p(X) :- q(X). q(a). q(b). r(X) :- p(X), q(X)."
    ]
  in
  List.iter
    (fun src ->
      let p = nprog src in
      Alcotest.(check bool) src true (C.lfp p = C.lfp_naive p))
    progs

let test_lfp_naf_rules_never_fire () =
  let p = nprog "p :- -q. r." in
  let m = N.decode_mask p (C.lfp p) in
  check_set "NAF rule inert in plain lfp" (atoms_of_names [ "r" ]) m

let test_reduct () =
  let p = nprog "p :- -q. q :- -p." in
  let qid = Option.get (N.atom_id p (lit "q").Literal.atom) in
  (* Candidate {q}: the rule for p is deleted, the rule for q keeps. *)
  let rules = C.reduct p ~assumed_false:(fun a -> a <> qid) in
  Alcotest.(check int) "one rule kept" 1 (Array.length rules);
  let m = C.lfp_rules p rules in
  Alcotest.(check bool) "q derived" true m.(qid)

(* ------------------------------------------------------------------ *)
(* Dependency graph and stratification                                 *)
(* ------------------------------------------------------------------ *)

let test_deps_and_sccs () =
  let g = Datalog.Deps.of_rules (rules "p :- q. q :- p. r :- p, -s. s.") in
  let sccs = Datalog.Deps.sccs g in
  Alcotest.(check int) "three components" 3 (List.length sccs);
  (* p and q are mutually recursive *)
  Alcotest.(check bool) "p, q together" true
    (List.exists (fun c -> List.length c = 2) sccs);
  (* dependencies come before dependents *)
  let flat = List.concat sccs in
  let pos x = Option.get (List.find_index (fun p -> p = (x, 0)) flat) in
  Alcotest.(check bool) "s before r" true (pos "s" < pos "r")

let test_stratification () =
  let strata src =
    Datalog.Deps.stratification (Datalog.Deps.of_rules (rules src))
  in
  (match strata "p :- -q. q :- r. r." with
  | None -> Alcotest.fail "should be stratified"
  | Some s ->
    Alcotest.(check int) "r stratum 0" 0 (List.assoc ("r", 0) s);
    Alcotest.(check int) "q stratum 0" 0 (List.assoc ("q", 0) s);
    Alcotest.(check int) "p stratum 1" 1 (List.assoc ("p", 0) s));
  Alcotest.(check bool) "negative cycle is not stratified" true
    (strata "p :- -q. q :- p." = None);
  Alcotest.(check bool) "positive cycle is stratified" true
    (strata "p :- q. q :- p." <> None)

let test_perfect_model () =
  let src = "reach(a). reach(Y) :- reach(X), e(X, Y). e(a, b). \
             unreached(X) :- node(X), -reach(X). node(a). node(b). node(c)." in
  let ground = Ground.Grounder.naive (rules src) in
  let p = N.of_rules ground in
  match Datalog.Perfect.model p (rules src) with
  | None -> Alcotest.fail "stratified program must have a perfect model"
  | Some m ->
    Alcotest.(check bool) "b reached" true
      (Atom.Set.mem (lit "reach(b)").Literal.atom m);
    Alcotest.(check bool) "c unreached" true
      (Atom.Set.mem (lit "unreached(c)").Literal.atom m);
    Alcotest.(check bool) "b not unreached" false
      (Atom.Set.mem (lit "unreached(b)").Literal.atom m)

let test_perfect_rejects_unstratified () =
  let src = "p :- -q. q :- -p." in
  let p = nprog src in
  Alcotest.(check bool) "no perfect model" true
    (Datalog.Perfect.model p (rules src) = None)

(* ------------------------------------------------------------------ *)
(* Well-founded semantics                                              *)
(* ------------------------------------------------------------------ *)

let value_of m s = Interp.value_lit m (lit s)

let test_wfs_win_move () =
  (* The canonical game: a position is won if some move leads to a lost
     position.  b -> c, a -> b: c lost, b won, a lost.  d -> d: undefined. *)
  let p =
    nprog
      "win(X) :- move(X, Y), -win(Y). move(a, b). move(b, c). move(d, d)."
  in
  let m = W.model p in
  Alcotest.check testable_value "win(b)" Interp.True (value_of m "win(b)");
  Alcotest.check testable_value "win(c)" Interp.False (value_of m "win(c)");
  Alcotest.check testable_value "win(a)" Interp.False (value_of m "win(a)");
  Alcotest.check testable_value "win(d)" Interp.Undefined (value_of m "win(d)")

let test_wfs_total_on_stratified () =
  let p = nprog "p :- -q. q :- r. r." in
  let r = W.compute p in
  Alcotest.(check bool) "total" true (W.is_total r);
  let m = W.model p in
  Alcotest.check testable_value "p false" Interp.False (value_of m "p");
  Alcotest.check testable_value "q true" Interp.True (value_of m "q")

let test_wfs_odd_loop () =
  let p = nprog "p :- -p." in
  let m = W.model p in
  Alcotest.check testable_value "p undefined" Interp.Undefined (value_of m "p")

let test_wfs_positive_loop_false () =
  let p = nprog "p :- p." in
  let m = W.model p in
  Alcotest.check testable_value "unfounded atom false" Interp.False
    (value_of m "p")

(* ------------------------------------------------------------------ *)
(* Stable models                                                       *)
(* ------------------------------------------------------------------ *)

let test_stable_choice () =
  let p = nprog "p :- -q. q :- -p." in
  let ms = S.models p in
  Alcotest.(check int) "two stable models" 2 (List.length ms);
  let has names =
    List.exists (fun m -> Atom.Set.equal m (atoms_of_names names)) ms
  in
  Alcotest.(check bool) "{p}" true (has [ "p" ]);
  Alcotest.(check bool) "{q}" true (has [ "q" ])

let test_stable_none () =
  let p = nprog "p :- -p." in
  Alcotest.(check int) "no stable model" 0 (List.length (S.models p))

let test_stable_unique_stratified () =
  let p = nprog "p :- -q. q :- r. r. s :- p." in
  match S.models p with
  | [ m ] ->
    check_set "unique stable = perfect" (atoms_of_names [ "q"; "r" ]) m
  | ms -> Alcotest.fail (Printf.sprintf "expected 1 model, got %d" (List.length ms))

let test_stable_constraint_via_oddloop () =
  (* p :- -p, q  acts as the constraint "not q". *)
  let p = nprog "q :- -r. r :- -q. p :- -p, q." in
  let ms = S.models p in
  Alcotest.(check int) "only r survives" 1 (List.length ms);
  check_set "model is {r}" (atoms_of_names [ "r" ]) (List.hd ms)

let test_stable_contains_wf () =
  let p = nprog "a. b :- a. p :- -q. q :- -p. c :- p, -c0. c :- q, -c0. c0 :- -c." in
  let wf = W.compute p in
  List.iter
    (fun m ->
      Array.iteri
        (fun i t -> if t then Alcotest.(check bool) "wf-true in stable" true m.(i))
        wf.W.true_;
      Array.iteri
        (fun i f -> if f then Alcotest.(check bool) "wf-false out of stable" false m.(i))
        wf.W.false_)
    (S.enumerate p)

let test_stable_is_stable_check () =
  let p = nprog "p :- -q. q :- -p." in
  List.iter
    (fun m -> Alcotest.(check bool) "enumerated models pass is_stable" true
        (S.is_stable p m))
    (S.enumerate p);
  let bogus = Array.make (N.n_atoms p) true in
  Alcotest.(check bool) "{p, q} not stable" false (S.is_stable p bogus)

let test_stable_limit () =
  let p = nprog "p :- -q. q :- -p. r :- -s. s :- -r." in
  Alcotest.(check int) "4 without limit" 4 (List.length (S.models p));
  Alcotest.(check int) "limit 2" 2 (List.length (S.models ~limit:2 p));
  Alcotest.(check bool) "first returns one" true (S.first p <> None)

(* ------------------------------------------------------------------ *)
(* 3-valued and founded models                                         *)
(* ------------------------------------------------------------------ *)

let test_three_valued_model () =
  let p = nprog "p :- -p." in
  Alcotest.(check bool) "{p} is a 3-valued model" true
    (T.is_three_valued_model p (interp [ "p" ]));
  Alcotest.(check bool) "{-p} is not (head F < body T)" false
    (T.is_three_valued_model p (interp [ "-p" ]));
  Alcotest.(check bool) "empty is a 3-valued model" true
    (T.is_three_valued_model p Interp.empty)

let test_founded () =
  let p = nprog "p :- -p." in
  Alcotest.(check bool) "{p} is not founded" false (T.is_founded p (interp [ "p" ]));
  Alcotest.(check bool) "empty is founded" true (T.is_founded p Interp.empty);
  let p2 = nprog "p :- -q. q :- -p." in
  Alcotest.(check bool) "{p, -q} founded" true
    (T.is_founded p2 (interp [ "p"; "-q" ]));
  Alcotest.(check bool) "{p} founded (partial)" false
    (T.is_founded p2 (interp [ "p" ]))

let test_sz_stable_models () =
  let p = nprog "p :- -q. q :- -p." in
  let stables = T.stable_models p in
  Alcotest.check testable_interp_set "two total stable models"
    [ interp [ "p"; "-q" ]; interp [ "q"; "-p" ] ]
    stables;
  (* p :- -p has empty well-founded = unique maximal founded model *)
  let p2 = nprog "p :- -p." in
  Alcotest.check testable_interp_set "odd loop: empty is the only stable"
    [ Interp.empty ] (T.stable_models p2)

let test_total_stable_matches_gl () =
  let p = nprog "p :- -q. q :- -p. r :- p." in
  Alcotest.check testable_interp_set "total stable = GL stable"
    (T.total_stable_models p)
    (List.filter
       (fun m -> Interp.is_total m ~base:(Array.to_list p.N.atoms))
       (T.stable_models p))

let suite =
  [ Alcotest.test_case "lfp: transitive closure" `Quick test_lfp_positive;
    Alcotest.test_case "lfp: counting = naive" `Quick test_lfp_vs_naive;
    Alcotest.test_case "lfp: NAF rules inert" `Quick test_lfp_naf_rules_never_fire;
    Alcotest.test_case "GL reduct" `Quick test_reduct;
    Alcotest.test_case "dependency graph and SCCs" `Quick test_deps_and_sccs;
    Alcotest.test_case "stratification" `Quick test_stratification;
    Alcotest.test_case "perfect model" `Quick test_perfect_model;
    Alcotest.test_case "perfect rejects unstratified" `Quick
      test_perfect_rejects_unstratified;
    Alcotest.test_case "wfs: win/move game" `Quick test_wfs_win_move;
    Alcotest.test_case "wfs: total on stratified" `Quick test_wfs_total_on_stratified;
    Alcotest.test_case "wfs: odd loop undefined" `Quick test_wfs_odd_loop;
    Alcotest.test_case "wfs: unfounded loop false" `Quick
      test_wfs_positive_loop_false;
    Alcotest.test_case "stable: even loop choice" `Quick test_stable_choice;
    Alcotest.test_case "stable: odd loop has none" `Quick test_stable_none;
    Alcotest.test_case "stable: stratified unique" `Quick test_stable_unique_stratified;
    Alcotest.test_case "stable: constraints" `Quick test_stable_constraint_via_oddloop;
    Alcotest.test_case "stable: respects well-founded core" `Quick
      test_stable_contains_wf;
    Alcotest.test_case "stable: is_stable" `Quick test_stable_is_stable_check;
    Alcotest.test_case "stable: limit and first" `Quick test_stable_limit;
    Alcotest.test_case "3-valued models" `Quick test_three_valued_model;
    Alcotest.test_case "founded models" `Quick test_founded;
    Alcotest.test_case "SZ stable models" `Quick test_sz_stable_models;
    Alcotest.test_case "total stable = GL" `Quick test_total_stable_matches_gl
  ]
