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
     (both change the universe: recomputed), an insertion the splice
     declines (re-interned: the codes are carried over by atom), and an
     insertion of a constant only a builtin mentioned (the schema
     universe stays; the spliced grounding's universe grows).

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
    KS.add_fact s ~obj:(obj a) f;
    Kb.Store.add_fact kb ~obj:(obj a) f

(* ------------------------------------------------------------------ *)
(* Structural identity of groundings and flat programs                 *)
(* ------------------------------------------------------------------ *)

module G = Ordered.Gop

let grule_equal (a : G.grule) (b : G.grule) =
  a.head = b.head && a.head_pol = b.head_pol && a.body = b.body
  && a.comp = b.comp
  && Option.equal String.equal a.name b.name

let gop_equal (g1 : G.t) (g2 : G.t) =
  g1.G.comp = g2.G.comp
  && Array.length g1.G.atoms = Array.length g2.G.atoms
  && Array.for_all2 Atom.equal g1.G.atoms g2.G.atoms
  && Array.length g1.G.rules = Array.length g2.G.rules
  && Array.for_all2 grule_equal g1.G.rules g2.G.rules
  && g1.G.by_head = g2.G.by_head
  && g1.G.by_body_pos = g2.G.by_body_pos
  && g1.G.by_body_neg = g2.G.by_body_neg
  && g1.G.overrulers = g2.G.overrulers
  && g1.G.defeaters = g2.G.defeaters
  && g1.G.suppresses = g2.G.suppresses
  && Array.for_all
       (fun a -> G.atom_id g1 a = G.atom_id g2 a)
       g1.G.atoms

(* Every array the kernel reads; [gop] is compared by [gop_equal]. *)
let flat_equal (f1 : Solve.Flat.t) (f2 : Solve.Flat.t) =
  let open Solve.Flat in
  f1.n_atoms = f2.n_atoms && f1.n_rules = f2.n_rules
  && f1.head = f2.head && f1.head_pol = f2.head_pol
  && f1.body_len = f2.body_len && f1.body_off = f2.body_off
  && f1.body_atom = f2.body_atom && f1.body_pol = f2.body_pol
  && f1.occ_off = f2.occ_off && f1.occ_rule = f2.occ_rule
  && f1.by_head_off = f2.by_head_off && f1.by_head_rule = f2.by_head_rule
  && f1.n_sup = f2.n_sup && f1.sup_of_off = f2.sup_of_off
  && f1.sup_of_rule = f2.sup_of_rule
  && f1.suppresses_off = f2.suppresses_off
  && f1.suppresses_rule = f2.suppresses_rule
  && f1.rank = f2.rank && f1.occ_score = f2.occ_score

let agree s kb =
  List.for_all
    (fun o ->
      let g = KS.gop s ~obj:o and g' = Scratch.gop kb ~obj:o in
      gop_equal g g'
      && flat_equal (Solve.Flat.compile g) (Solve.Flat.compile g')
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
     grounding moved some old atom to a new id (the declined splice). *)
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
  step ~what:"insertion the splice declines" ~repaired:true ~renumbered:true
    (add "top" "y :- z.");
  step ~what:"deletion of a constant-free rule" ~repaired:true ~renumbered:true
    (remove "top" "y :- z.");
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
    Alcotest.test_case "the cached least model through each repair path" `Quick
      test_least_codes_paths
  ]
