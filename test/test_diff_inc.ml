(* Differential testing of incremental maintenance (lib/inc and the
   session's delta eviction) against from-scratch recomputation:

   - an incremental session fed a random mutation sequence answers
     every query (least model, stable and assumption-free models, over
     every object) identically to a plain uncached store replaying the
     same sequence — reads interleave with writes so repairs actually
     run against populated caches, and the rule pool mixes
     propositional rules, ground facts over constants (exercising the
     [`Universe_changed] fallback) and rules with variables
     (exercising instantiation in [Reground]);
   - the direct [Inc] API: when [Reground.reground] accepts a
     single-rule insertion, the repaired grounding is structurally equal
     to scratch grounding (atoms in id order, every ground rule, every
     adjacency row, universe and active base — the enumeration-order
     contract rests on that bit-identity) and [Repair.least_model]
     seeded with the old fixpoint lands exactly on the scratch fixpoint;
     regrounding {e back} to the original program exercises the
     deletion path the same way.  The session property checks the same
     identity on every cached viewpoint, and that the compiled flat
     program of a repaired grounding equals the scratch compile array by
     array;
   - the cached least model, kept as codes over the grounding's atom
     ids, equals the scratch fixpoint after every mutation, through each
     way a write reaches it: an insertion whose constants the view
     already has (repaired on the spliced ids), one that brings a fresh
     constant and the deletion of the last rule mentioning a constant
     (both change the universe: recomputed), insertions and deletions
     the splice renumbers (the codes are carried over by atom), and an
     insertion of a constant only a builtin mentioned (the schema
     universe stays; the spliced grounding's universe grows);
   - the cone of every accepted reground, on random programs and
     writes, covers every atom whose scratch least-fixpoint value
     changed.

   Iteration counts scale with FUZZ_ITERS like the other fuzz suites
   (wired as diff-inc in the Makefile). *)

open Logic
open Helpers
module Gen = QCheck2.Gen
module KS = Kb.Session
module B = Ordered.Budget

let iters base =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > base -> n
    | _ -> base)
  | None -> base

(* Mutation rules: the propositional alphabet the program generator
   uses (so added rules interact with generated ones), plus ground and
   variable rules over constants (universe changes, real
   instantiation), plus named rules (dedup keys include the name). *)
let rule_pool =
  [| "p.";
     "q :- p.";
     "-r :- q.";
     "s :- p, -r.";
     "r :- -q.";
     "-p :- r, s.";
     "w(k1).";
     "v(X) :- w(X).";
     "w(k2).";
     "u :- v(k1).";
     "nm : q :- -s.";
     "nm : -q :- s."
  |]

let pool_rule i = rule rule_pool.(i mod Array.length rule_pool)

(* One encoded mutation: kind + two free integers, resolved against the
   current object list at apply time so sequences stay well-formed.
   [kb] is a plain store replaying the same sequence. *)
let apply_mut s kb fresh (k, a, b) =
  let objs = KS.objects s in
  let obj i = List.nth objs (i mod List.length objs) in
  match k mod 5 with
  | 0 ->
    let r = pool_rule b in
    KS.add_rule s ~obj:(obj a) r;
    Kb.Store.add_rule kb ~obj:(obj a) r
  | 1 -> (
    let o = obj a in
    match KS.rules s o with
    | [] -> ()
    | rs ->
      let r = List.nth rs (b mod List.length rs) in
      let x = KS.remove_rule s ~obj:o r in
      let y = Kb.Store.remove_rule kb ~obj:o r in
      assert (x = y))
  | 2 ->
    incr fresh;
    let name = Printf.sprintf "m%d" !fresh in
    let r = pool_rule b in
    KS.define s ~isa:[ obj a ] name [ r ];
    Kb.Store.define kb ~isa:[ obj a ] name [ r ]
  | 3 ->
    let x = KS.new_version s (obj a) in
    let y = Kb.Store.new_version kb (obj a) in
    assert (String.equal x y)
  | _ ->
    (* a fact about a constant: flips the viewpoint's Herbrand universe
       between ground and propositional — the repair must refuse and
       recompute, and still agree with scratch *)
    let f = lit (if b mod 2 = 0 then "w(k9)" else "-v(k9)") in
    KS.add_rule s ~obj:(obj a) (Rule.fact f);
    Kb.Store.add_rule kb ~obj:(obj a) (Rule.fact f)

(* ------------------------------------------------------------------ *)
(* Structural identity of groundings                                  *)
(* ------------------------------------------------------------------ *)

module G = Ordered.Gop

(* Every array of the gop: the rule table and every CSR row the kernel
   and the fixpoint engines read. *)
let gop_equal (g1 : G.t) (g2 : G.t) =
  g1.G.comp = g2.G.comp
  && Array.length g1.G.atoms = Array.length g2.G.atoms
  && Array.for_all2 Atom.equal g1.G.atoms g2.G.atoms
  && g1.G.head = g2.G.head
  && g1.G.rule_comp = g2.G.rule_comp
  && Array.for_all2 (Option.equal String.equal) g1.G.rule_name g2.G.rule_name
  && g1.G.body_off = g2.G.body_off
  && g1.G.body = g2.G.body
  && g1.G.occ_off = g2.G.occ_off
  && g1.G.occ = g2.G.occ
  && g1.G.head_off = g2.G.head_off
  && g1.G.by_head = g2.G.by_head
  && g1.G.sup_off = g2.G.sup_off
  && g1.G.def_off = g2.G.def_off
  && g1.G.sup = g2.G.sup
  && g1.G.suppresses_off = g2.G.suppresses_off
  && g1.G.suppresses = g2.G.suppresses
  && Array.for_all
       (fun a -> G.atom_id g1 a = G.atom_id g2 a)
       g1.G.atoms

let agree s kb =
  List.for_all
    (fun o ->
      let g = KS.gop s ~obj:o and g' = Scratch.gop kb ~obj:o in
      gop_equal g g'
      && Interp.equal (KS.least_model s ~obj:o) (Scratch.least_model kb ~obj:o)
      && interp_set_equal
           (B.value (KS.stable_models s ~obj:o))
           (B.value (Scratch.stable_models kb ~obj:o))
      && interp_set_equal
           (B.value (KS.assumption_free_models s ~obj:o))
           (B.value (Scratch.assumption_free_models kb ~obj:o)))
    (KS.objects s)

let gen_muts =
  Gen.list_size (Gen.int_range 1 8)
    (Gen.triple (Gen.int_bound 4) (Gen.int_bound 96) (Gen.int_bound 96))

let prop_session_equals_scratch =
  qcheck
    ~count:(iters 60)
    ~print:(fun (p, muts) ->
      print_program p ^ "\n"
      ^ String.concat ";"
          (List.map (fun (k, a, b) -> Printf.sprintf "(%d,%d,%d)" k a b) muts))
    "incremental session = from-scratch store on mutation sequences"
    Gen.(pair (Test_props.gen_ordered 4) gen_muts)
    (fun (p, muts) ->
      let src = print_program p in
      let s = KS.create () in
      KS.load s src;
      let kb = Kb.Store.create () in
      Kb.Store.load kb src;
      let fresh = ref 0 in
      agree s kb
      && List.for_all
           (fun m ->
             apply_mut s kb fresh m;
             agree s kb)
           muts
      && List.equal String.equal (KS.objects s) (Kb.Store.objects kb))

(* ------------------------------------------------------------------ *)
(* The Inc API directly: repaired grounding ≡ scratch grounding        *)
(* ------------------------------------------------------------------ *)

let gop_agrees g1 g2 =
  gop_equal g1 g2
  && Interp.equal (Ordered.Vfix.least_model g1) (Ordered.Vfix.least_model g2)
  && interp_set_equal
       (B.value (Ordered.Stable.stable_models g1))
       (B.value (Ordered.Stable.stable_models g2))

(* The schema universe a repaired state carries, which its next repair
   instantiates over, against a scratch state's. *)
let universe_equal (a : Inc.Reground.state) (b : Inc.Reground.state) =
  List.equal Term.equal a.Inc.Reground.universe b.Inc.Reground.universe

let repair_lands_on ~previous g d =
  let scratch = Ordered.Vfix.least_model g in
  match Inc.Repair.least_model ~previous g d with
  | Inc.Repair.Unchanged -> Interp.equal previous scratch
  | Inc.Repair.Repaired m | Inc.Repair.Recomputed m -> Interp.equal m scratch

let prop_reground_exact =
  qcheck
    ~count:(iters 80)
    ~print:(fun (p, i) -> print_program p ^ Printf.sprintf " +pool(%d)" i)
    "reground insertion/deletion = scratch grounding, repair = scratch lfp"
    Gen.(pair (Test_props.gen_ordered 4) (Gen.int_bound 96))
    (fun (p, i) ->
      let c = Ordered.Program.component_id_exn p "c0" in
      let state1 = Inc.Reground.ground p c in
      let p2 = Ordered.Program.add_rules p c [ pool_rule i ] in
      let scratch2 = Inc.Reground.ground p2 c in
      match Inc.Reground.reground state1 ~program:p2 with
      | Error _ -> true (* refusal is always sound: the caller recomputes *)
      | Ok (state2, delta) ->
        gop_agrees state2.Inc.Reground.gop scratch2.Inc.Reground.gop
        && universe_equal state2 scratch2
        && repair_lands_on
             ~previous:(Ordered.Vfix.least_model state1.Inc.Reground.gop)
             state2.Inc.Reground.gop delta
        && (* and back: removing the rule again is the deletion path *)
        (match Inc.Reground.reground state2 ~program:p with
        | Error _ -> true
        | Ok (state1', delta') ->
          gop_agrees state1'.Inc.Reground.gop state1.Inc.Reground.gop
          && universe_equal state1' state1
          && repair_lands_on
               ~previous:(Ordered.Vfix.least_model state2.Inc.Reground.gop)
               state1'.Inc.Reground.gop delta'))

(* A splice driven directly, with a drop and an insertion in one edit
   list: [b] vanishes and the fresh [d] takes its id, so [c] keeps its
   own id although an atom before it changed — the splice must still
   build [c]'s rows, as scratch interning of the edited view does. *)
let test_splice_mixed_edit () =
  let p = program "component m { a. b. c. }" in
  let c = Ordered.Program.component_id_exn p "m" in
  let g = G.ground p c in
  let d = (rule "d.").Rule.head.Literal.atom in
  let ins = { G.comp = c; src = rule "d."; keys = [| [| (2 * 3) + 1 |] |] } in
  let g', map =
    G.splice g ~program:p ~fresh:[| d |] [ G.Keep 1; G.Drop 1; G.Insert ins; G.Keep 1 ]
  in
  Alcotest.(check (array int)) "old and fresh ids to new" [| 0; -1; 2; 1 |] map;
  Alcotest.(check bool) "spliced = of_view over the edited view" true
    (gop_equal g'
       (Oracle.Ground.of_view p c
          [ (c, rule "a."); (c, rule "d."); (c, rule "c.") ]))

(* Splices that move no atom share the old atom table: an atom that
   vanished must not be found through it, also once a fresh atom has
   taken its id. *)
let test_splice_shared_index () =
  let p = program "component m { a. b. c. }" in
  let c = Ordered.Program.component_id_exn p "m" in
  let atom s = (rule s).Rule.head.Literal.atom in
  let g1, _ = G.splice (G.ground p c) ~program:p ~fresh:[||] [ G.Keep 2; G.Drop 1 ] in
  let d = atom "d." in
  let ins = { G.comp = c; src = rule "d."; keys = [| [| (2 * 2) + 1 |] |] } in
  let g2, _ = G.splice g1 ~program:p ~fresh:[| d |] [ G.Keep 2; G.Insert ins ] in
  let id g s = G.atom_id g (atom s) in
  Alcotest.(check (option int)) "c vanished" None (id g1 "c.");
  Alcotest.(check (option int)) "d not yet there" None (id g1 "d.");
  Alcotest.(check (option int)) "c still gone" None (id g2 "c.");
  Alcotest.(check (option int)) "d takes c's id" (Some 2) (id g2 "d.");
  Alcotest.(check (option int)) "b kept" (Some 1) (id g2 "b.")

(* ------------------------------------------------------------------ *)
(* Cone soundness                                                      *)
(* ------------------------------------------------------------------ *)

(* Rules the cone property writes: rules with variables over the two
   constants every program of the property has, mixed with
   propositional rules over the generator's alphabet, so that a write
   reaches generated rules through bodies and through suppression. *)
let cone_pool =
  [| "v(X) :- w(X).";
     "-v(X) :- w(X), q.";
     "u(X) :- v(X), -p.";
     "p :- v(k1).";
     "-q :- u(k2).";
     "w(X) :- v(X), r.";
     "-u(X) :- w(X), -v(X).";
     "q :- p.";
     "-r :- q.";
     "s :- p, -r."
  |]

(* Every atom whose scratch least-fixpoint value after the write differs
   from its value before it (compared by atom) is in the cone of the
   write's delta over the repaired grounding.  [Repair] falls back to a
   full fixpoint when propagation from a too-small cone conflicts, so
   only this check shows a cone that misses an atom. *)
let cone_covers ~old g scratch d =
  let before = Ordered.Vfix.least_model old in
  let after = Ordered.Vfix.least_model scratch in
  let cone = Inc.Cone.affected g d in
  Array.for_all
    (fun a ->
      Interp.value before a = Interp.value after a
      ||
      match G.atom_id g a with Some i -> cone.(i) | None -> false)
    scratch.G.atoms

let prop_cone_sound =
  qcheck
    ~count:(iters 80)
    ~print:(fun (p, muts) ->
      print_program p ^ "\n"
      ^ String.concat ";"
          (List.map (fun (k, a, b) -> Printf.sprintf "(%d,%d,%d)" k a b) muts))
    "the cone of an accepted reground covers every changed lfp value"
    Gen.(pair (Test_props.gen_ordered 4) gen_muts)
    (fun (p, muts) ->
      let c = Ordered.Program.component_id_exn p "c0" in
      let p =
        Ordered.Program.add_rules p c [ rule "w(k1)."; rule "w(k2)." ]
      in
      let comps = Array.of_list (Ordered.Poset.above (Ordered.Program.poset p) c) in
      (* [k] even: insert a pool rule into a component of the view (the
         viewpoint or one above it); odd: delete every occurrence of one
         of its rules *)
      let step (p, st, ok) (k, a, b) =
        let o = comps.(a mod Array.length comps) in
        let p2 =
          if k mod 2 = 0 then
            Ordered.Program.add_rules p o [ rule cone_pool.(b mod Array.length cone_pool) ]
          else
            match local_rules p o with
            | [] -> p
            | rs ->
              let r = List.nth rs (b mod List.length rs) in
              Ordered.Program.with_rules p o
                (List.filter (fun r' -> not (Rule.equal r r')) rs)
        in
        let scratch = Inc.Reground.ground p2 c in
        match Inc.Reground.reground st ~program:p2 with
        | Error _ -> (p2, scratch, ok)
        | Ok (st2, d) ->
          ( p2,
            st2,
            ok
            && cone_covers ~old:st.Inc.Reground.gop st2.Inc.Reground.gop
                 scratch.Inc.Reground.gop d )
      in
      let _, _, ok = List.fold_left step (p, Inc.Reground.ground p c, true) muts in
      ok)

(* ------------------------------------------------------------------ *)
(* The cached least model through each repair path                     *)
(* ------------------------------------------------------------------ *)

let test_least_codes_paths () =
  let s = KS.create () in
  KS.load s
    "component top { w(k1). v(X) :- w(X). }\n\
     component bot extends top { u :- v(k1). }\n\
     component aux { w(k1). r :- k1 != k2. }";
  let kb = Kb.Store.create () in
  Kb.Store.load kb (Kb.Store.to_source (KS.store s));
  let ids obj =
    let g = KS.gop s ~obj in
    Array.to_list (Array.mapi (fun i a -> (a, i)) g.G.atoms)
  in
  (* one write on both stores, then the cached model against the scratch
     fixpoint.  [repaired]: the write repaired the cached model, so the
     read is a hit; otherwise the write refused the repair (a changed
     universe) and the read recomputes.  [renumbered]: the repaired
     grounding moved some old atom to a new id (the renumbering splice). *)
  let step ?(obj = "bot") ~what ~repaired ?(renumbered = false) write =
    ignore (KS.least_model s ~obj : Interp.t);
    let before = ids obj in
    let c0 = KS.counters s in
    write ();
    let c1 = KS.counters s in
    let m = KS.least_model s ~obj in
    let c2 = KS.counters s in
    let g = Scratch.gop kb ~obj in
    Alcotest.(check bool) (what ^ ": grounding = scratch") true
      (gop_equal (KS.gop s ~obj) g);
    Alcotest.(check testable_interp)
      (what ^ ": cached = scratch lfp")
      (G.Values.to_interp g (Ordered.Vfix.lfp g))
      m;
    Alcotest.(check bool) (what ^ ": served from the cache") repaired
      (c2.KS.hits = c1.KS.hits + 1);
    Alcotest.(check int) (what ^ ": fallbacks") (if repaired then 0 else 1)
      (c1.KS.fallbacks - c0.KS.fallbacks);
    if repaired then begin
      let after = ids obj in
      Alcotest.(check bool) (what ^ ": old atoms renumbered") renumbered
        (List.exists
           (fun (a, i) ->
             match List.assoc_opt a after with Some j -> i <> j | None -> false)
           before)
    end
  in
  let add o src () =
    KS.add_rule s ~obj:o (rule src);
    Kb.Store.add_rule kb ~obj:o (rule src)
  in
  let remove o src () =
    assert (KS.remove_rule s ~obj:o (rule src));
    assert (Kb.Store.remove_rule kb ~obj:o (rule src))
  in
  step ~what:"insertion over known constants" ~repaired:true
    (add "bot" "x(k1) :- v(k1).");
  step ~what:"insertion of a fresh constant" ~repaired:false (add "top" "w(k2).");
  step ~what:"deletion of a constant's last rule" ~repaired:false
    (remove "top" "w(k2).");
  step ~what:"insertion the splice renumbers" ~repaired:true ~renumbered:true
    (add "top" "y :- z.");
  step ~what:"deletion of a constant-free rule" ~repaired:true ~renumbered:true
    (remove "top" "y :- z.");
  (* [x(k1)] is first numbered in [bot]'s block; an instance in [top]
     reaches it first, so scratch numbers it before [u] — old atoms move
     with no fresh atom, and move back when the rule goes *)
  step ~what:"insertion of a rule with variables that numbers an atom earlier"
    ~repaired:true ~renumbered:true (add "top" "x(X) :- w(X).");
  step ~what:"deletion of that rule" ~repaired:true ~renumbered:true
    (remove "top" "x(X) :- w(X).");
  step ~what:"deletion of a rule whose constants stay" ~repaired:true
    (remove "bot" "x(k1) :- v(k1).");
  (* [k2] is in the schema universe through the builtin only: the
     insertion keeps that universe, and the splice adds [k2] to the
     grounding's *)
  step ~obj:"aux" ~what:"insertion of a constant only a builtin mentioned"
    ~repaired:true (add "aux" "w(k2).")

let suite =
  [ prop_session_equals_scratch;
    prop_reground_exact;
    prop_cone_sound;
    Alcotest.test_case "a splice with a drop and an insertion = of_view" `Quick
      test_splice_mixed_edit;
    Alcotest.test_case "a splice that moves no atom shares the atom table" `Quick
      test_splice_shared_index;
    Alcotest.test_case "the cached least model through each repair path" `Quick
      test_least_codes_paths
  ]
