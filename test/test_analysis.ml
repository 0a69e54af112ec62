(* Static conflict analysis and the Datalog engine facade. *)

open Logic
open Helpers
module A = Ordered.Analysis

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

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

(* The conflicts the order leaves to defeat. *)
let defeat_prone p c =
  List.filter
    (fun (c : A.conflict) -> c.A.resolution = A.Defeating)
    (A.conflicts p c)

let test_conflicts_p1 () =
  let p = program p1_src in
  let c1 = Ordered.Program.component_id_exn p "c1" in
  let cs = A.conflicts p c1 in
  (* fly vs -fly (overruling, c1 wins) and ground_animal fact vs
     -ground_animal rule (overruling, c1 wins) *)
  Alcotest.(check int) "two potential conflicts" 2 (List.length cs);
  List.iter
    (fun (c : A.conflict) ->
      match c.A.resolution with
      | A.Overruling { winner } ->
        Alcotest.(check string) "c1 wins" "c1"
          (Ordered.Program.component_name p winner)
      | A.Defeating -> Alcotest.fail "expected overruling")
    cs;
  Alcotest.(check int) "no defeat-prone pairs" 0
    (List.length (defeat_prone p c1))

let test_conflicts_flattened () =
  let p = program p1_src in
  let flat = Ordered.Program.singleton (Ordered.Program.all_rules p) in
  let cs = A.conflicts flat 0 in
  Alcotest.(check int) "same two conflicts" 2 (List.length cs);
  Alcotest.(check int) "both defeat-prone when flattened" 2
    (List.length (defeat_prone flat 0))

let test_conflicts_viewpoint () =
  let p = program p1_src in
  let c2 = Ordered.Program.component_id_exn p "c2" in
  (* from c2's own view, c1's exception is invisible *)
  Alcotest.(check int) "no conflicts visible from c2" 0
    (List.length (A.conflicts p c2));
  Alcotest.(check bool) "conflict-free from c2" true (A.conflicts p c2 = [])

let test_conflicts_nonground_unification () =
  (* Heads with different constants cannot conflict. *)
  let p =
    program
      "component main { p(a). -p(b). q(X) :- r(X). -q(c). }"
  in
  let cs = A.conflicts p 0 in
  (* p(a)/-p(b) do not unify; q(X)/-q(c) do *)
  Alcotest.(check int) "only the unifiable pair" 1 (List.length cs);
  Alcotest.(check bool) "renaming avoids variable capture" true
    (let p2 = program "component main { q(X) :- r(X). -q(X) :- s(X). }" in
     List.length (A.conflicts p2 0) = 1)

(* ------------------------------------------------------------------ *)
(* Datalog engine facade                                               *)
(* ------------------------------------------------------------------ *)

let test_engine_minimal_model () =
  let e = Datalog.Engine.load_src "e(1, 2). e(2, 3). t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y)." in
  Alcotest.(check int) "3 edges + 3 paths... 2 edges + 3 paths" 5
    (Atom.Set.cardinal (Datalog.Engine.minimal_model e))

let test_engine_well_founded () =
  let e =
    Datalog.Engine.load_src
      "win(X) :- move(X, Y), -win(Y). move(a, b). move(b, c). move(d, d)."
  in
  Alcotest.check testable_value "win(b)" Interp.True
    (Datalog.Engine.holds e (lit "win(b)"));
  Alcotest.check testable_value "win(d)" Interp.Undefined
    (Datalog.Engine.holds e (lit "win(d)"))

let test_engine_stable () =
  let e = Datalog.Engine.load_src "p :- -q. q :- -p." in
  Alcotest.(check int) "two stable models" 2
    (List.length (Datalog.Engine.stable_models e));
  Alcotest.(check int) "limit" 1
    (List.length (Datalog.Engine.stable_models ~limit:1 e))

let test_engine_perfect () =
  let e = Datalog.Engine.load_src "p :- -q. q :- r. r." in
  Alcotest.(check bool) "stratified" true (Datalog.Engine.is_stratified e);
  (match Datalog.Engine.perfect_model e with
  | Some m -> Alcotest.(check int) "perfect = {q, r}" 2 (Atom.Set.cardinal m)
  | None -> Alcotest.fail "expected perfect model");
  let e2 = Datalog.Engine.load_src "p :- -q. q :- -p." in
  Alcotest.(check bool) "unstratified" false (Datalog.Engine.is_stratified e2);
  Alcotest.(check bool) "no perfect model" true
    (Datalog.Engine.perfect_model e2 = None)

let test_engine_grounders_agree () =
  let src = "anc(X, Y) :- parent(X, Y). anc(X, Y) :- parent(X, Z), anc(Z, Y). \
             parent(a, b). parent(b, c). orphan(X) :- node(X), -anc(a, X). \
             node(a). node(b). node(c)." in
  let rel = Datalog.Engine.load_src ~grounder:`Relevant src in
  let nai = Datalog.Engine.load_src ~grounder:`Naive src in
  let wf_rel = Datalog.Engine.well_founded rel in
  let wf_nai = Datalog.Engine.well_founded nai in
  (* Naive grounding interns unreachable instances (e.g. anc(c, b)) that
     the relevant grounding never mentions; under NAF an unmentioned atom
     reads as false, so agreement means: same true atoms, and the naive
     model is false wherever the relevant one is silent. *)
  Alcotest.(check (list testable_atom)) "same true atoms"
    (Interp.true_atoms wf_nai) (Interp.true_atoms wf_rel);
  List.iter
    (fun a ->
      let expected =
        match Interp.value wf_rel a with
        | Interp.Undefined -> Interp.False
        | v -> v
      in
      Alcotest.check testable_value (Atom.to_string a) expected
        (Interp.value wf_nai a))
    (List.map (fun (l : Literal.t) -> l.atom) (Interp.to_literals wf_nai))

let suite =
  [ Alcotest.test_case "conflicts in P1" `Quick test_conflicts_p1;
    Alcotest.test_case "conflicts when flattened" `Quick test_conflicts_flattened;
    Alcotest.test_case "conflicts depend on the viewpoint" `Quick
      test_conflicts_viewpoint;
    Alcotest.test_case "conflicts use head unification" `Quick
      test_conflicts_nonground_unification;
    Alcotest.test_case "engine: minimal model" `Quick test_engine_minimal_model;
    Alcotest.test_case "engine: well-founded" `Quick test_engine_well_founded;
    Alcotest.test_case "engine: stable" `Quick test_engine_stable;
    Alcotest.test_case "engine: perfect / stratification" `Quick
      test_engine_perfect;
    Alcotest.test_case "engine: grounders agree" `Quick
      test_engine_grounders_agree
  ]

(* Analysis is consistent with the ground suppression structure: every
   ground overruling/defeating edge is predicted by a static conflict on
   the corresponding rules. *)
let prop_analysis_covers_ground_edges =
  qcheck ~count:80 ~print:print_program
    "static conflicts cover ground suppression edges"
    (Test_props.gen_ordered 4) (fun p ->
      let g = Ordered.Gop.ground p 0 in
      let conflicts = A.conflicts p 0 in
      (* Compare on (component, head literal): grounding dedups body
         literals, so exact rule equality would be too strict. *)
      let covered i j =
        let key idx =
          ( g.Ordered.Gop.rule_comp.(idx),
            Rule.head (Ordered.Gop.rule_src g idx) )
        in
        let ki = key i and kj = key j in
        let matches (c, h) (c', (h' : Literal.t)) =
          c = c' && Literal.equal h h'
        in
        List.exists
          (fun (c : A.conflict) ->
            let ka = (c.A.comp_a, Rule.head c.A.rule_a) in
            let kb = (c.A.comp_b, Rule.head c.A.rule_b) in
            (matches ki ka && matches kj kb)
            || (matches ki kb && matches kj ka))
          conflicts
      in
      List.for_all Fun.id
        (List.concat
           (List.init (Ordered.Gop.n_rules g) (fun i ->
                let lo = g.Ordered.Gop.sup_off.(i) in
                List.init
                  (g.Ordered.Gop.sup_off.(i + 1) - lo)
                  (fun k -> covered i g.Ordered.Gop.sup.(lo + k))))))

let test_gop_stats () =
  let p = program p1_src in
  let g = Ordered.Gop.ground p (Ordered.Program.component_id_exn p "c1") in
  let s = Ordered.Gop.stats g in
  Alcotest.(check int) "atoms" 6 s.Ordered.Gop.atoms;
  Alcotest.(check int) "rules" 9 s.Ordered.Gop.rules;
  Alcotest.(check int) "overruling edges" 3 s.Ordered.Gop.overruling_edges;
  Alcotest.(check int) "defeating edges" 0 s.Ordered.Gop.defeating_edges

let suite =
  suite
  @ [ prop_analysis_covers_ground_edges;
      Alcotest.test_case "gop stats" `Quick test_gop_stats
    ]
