(* The memoizing KB session (Kb.Session): hit-after-repeat, a miss after
   every mutating operation, partial results staying out of the cache,
   and the differential property — cached answers are identical to a
   fresh uncached store on random ordered programs. *)

open Logic
open Helpers
module KS = Kb.Session
module B = Ordered.Budget

let demo_src =
  "component top { fly(X) :- bird(X). bird(tweety). bird(penguin). }\n\
   component bot extends top { -fly(penguin). }"

let session_with src =
  let s = KS.create () in
  KS.load s src;
  s

let check_counters name ~hits ~misses s =
  let c = KS.counters s in
  Alcotest.(check int) (name ^ ": hits") hits c.KS.hits;
  Alcotest.(check int) (name ^ ": misses") misses c.KS.misses

let test_hit_after_repeat () =
  let s = session_with demo_src in
  let once = B.value (KS.stable_models s ~obj:"bot") in
  check_counters "first models call" ~hits:0 ~misses:1 s;
  let again = B.value (KS.stable_models s ~obj:"bot") in
  check_counters "repeat models call" ~hits:1 ~misses:1 s;
  Alcotest.(check bool) "same models" true (interp_set_equal once again);
  (* distinct parameters are distinct keys, not hits *)
  ignore (KS.stable_models ~limit:1 s ~obj:"bot");
  ignore (KS.preferred_models s ~obj:"bot");
  ignore (KS.assumption_free_models s ~obj:"bot");
  check_counters "other keys" ~hits:1 ~misses:4 s;
  (* query and explain memoize too *)
  ignore (KS.query_src s ~obj:"bot" "fly(penguin)");
  ignore (KS.query_src s ~obj:"bot" "fly(tweety)");
  check_counters "first queries (shared least model)" ~hits:2 ~misses:5 s;
  ignore (KS.explain s ~obj:"bot" (lit "-fly(penguin)"));
  ignore (KS.explain s ~obj:"bot" (lit "-fly(penguin)"));
  check_counters "explain twice" ~hits:3 ~misses:6 s

(* Delta eviction (PR 10): a mutation publishes a new view (one
   invalidation) but carries forward every cache entry whose viewpoint
   cone provably cannot see the change, and repairs the least model of
   the viewpoints that can. *)
let test_delta_eviction () =
  let s = session_with demo_src in
  let prime_bot () = ignore (B.value (KS.stable_models s ~obj:"bot")) in
  let hits () = (KS.counters s).KS.hits in
  prime_bot ();

  (* define: a fresh object is invisible to existing views — kept *)
  let before = KS.counters s in
  KS.define_src s ~isa:[ "bot" ] "extra" "p.";
  let after = KS.counters s in
  Alcotest.(check int)
    "define: one invalidation"
    (before.KS.invalidations + 1)
    after.KS.invalidations;
  Alcotest.(check int) "define: entries carried" before.KS.entries
    after.KS.entries;
  let h = hits () in
  prime_bot ();
  Alcotest.(check int) "define: repeat is a hit" (h + 1) (hits ());

  (* add_rule on extra: bot cannot see extra, so bot's entries survive;
     extra's least model is repaired in place and keeps serving hits *)
  ignore (KS.query_src s ~obj:"extra" "p");
  let before = KS.counters s in
  KS.add_rule_src s ~obj:"extra" "q :- p.";
  let after = KS.counters s in
  Alcotest.(check int)
    "add_rule: grounding + fixpoint repaired"
    (before.KS.repairs + 2) after.KS.repairs;
  let h = hits () in
  prime_bot ();
  Alcotest.(check int) "add_rule elsewhere: bot still hits" (h + 1) (hits ());
  let h = hits () in
  Alcotest.(check bool)
    "repaired least model is exact" true
    (KS.query_src s ~obj:"extra" "q" = Interp.True);
  Alcotest.(check int) "repaired entry serves the hit" (h + 1) (hits ());

  (* a fresh constant changes the Herbrand universe: repair must refuse
     and fall back — counted, and the next read recomputes *)
  let before = KS.counters s in
  KS.add_rule_src s ~obj:"extra" "w(zed).";
  let after = KS.counters s in
  Alcotest.(check bool)
    "fresh constant falls back" true
    (after.KS.fallbacks > before.KS.fallbacks);
  let m = (KS.counters s).KS.misses in
  Alcotest.(check bool)
    "recompute after fallback is exact" true
    (KS.query_src s ~obj:"extra" "w(zed)" = Interp.True);
  Alcotest.(check int) "fallback evicted: recompute is a miss" (m + 1)
    (KS.counters s).KS.misses;

  (* removal repairs too: q loses its only support *)
  let before = KS.counters s in
  Alcotest.(check bool)
    "rule removed" true
    (KS.remove_rule s ~obj:"extra" (rule "q :- p."));
  let after = KS.counters s in
  Alcotest.(check int)
    "remove_rule: grounding + fixpoint repaired"
    (before.KS.repairs + 2) after.KS.repairs;
  Alcotest.(check bool)
    "repaired least model dropped the head" true
    (KS.query_src s ~obj:"extra" "q" = Interp.Undefined);

  (* new_version is a fresh object: carried *)
  let before = KS.counters s in
  ignore (KS.new_version s ~rules:[ rule "-p." ] "extra");
  Alcotest.(check int) "new_version: entries carried" before.KS.entries
    (KS.counters s).KS.entries;

  (* removing an absent rule mutates nothing: still a hit afterwards *)
  prime_bot ();
  let before = KS.counters s in
  Alcotest.(check bool)
    "absent rule not removed" false
    (KS.remove_rule s ~obj:"extra" (rule "never :- here."));
  prime_bot ();
  let after = KS.counters s in
  Alcotest.(check int)
    "no invalidation for a no-op remove" before.KS.invalidations
    after.KS.invalidations;
  Alcotest.(check int) "repeat is a hit" (before.KS.hits + 1) after.KS.hits;

  (* the wholesale baseline restores flush-on-write *)
  KS.set_eviction s `Wholesale;
  Alcotest.(check bool) "eviction mode set" true (KS.eviction s = `Wholesale);
  KS.add_rule_src s ~obj:"extra" "z.";
  Alcotest.(check int) "wholesale: cache emptied" 0 (KS.counters s).KS.entries;
  let m = (KS.counters s).KS.misses in
  prime_bot ();
  Alcotest.(check int) "wholesale: recompute is a miss" (m + 1)
    (KS.counters s).KS.misses

let test_partial_not_cached () =
  let s = session_with demo_src in
  (* a 1-step budget trips in grounding (raises) or in enumeration
     (returns [Partial]); either way nothing may be cached *)
  (match KS.stable_models ~budget:(B.make ~max_steps:1 ()) s ~obj:"bot" with
  | B.Partial _ -> ()
  | B.Complete _ -> Alcotest.fail "1-step budget did not trip"
  | exception B.Exhausted _ -> ());
  let c = KS.counters s in
  Alcotest.(check int) "partial result not stored" 0 c.KS.entries;
  (* a later, well-funded call recomputes and completes *)
  match KS.stable_models s ~obj:"bot" with
  | B.Complete ms ->
    Alcotest.(check int) "full result" 1 (List.length ms);
    Alcotest.(check int) "now cached" 1 (KS.counters s).KS.entries
  | B.Partial _ -> Alcotest.fail "unlimited budget tripped"

(* Differential: session answers (first call and cached repeat) agree
   with a fresh uncached Kb on random ordered programs, across every
   object and both model kinds, and enumerate in the pruned search's
   order (the kernel's order contract, observed through the cache). *)
let prop_cached_equals_uncached =
  qcheck ~count:60 ~print:print_program
    "session = fresh store on random KBs (and repeats hit)"
    (Test_props.gen_ordered 4)
    (fun p ->
      let src = print_program p in
      let s = KS.create () in
      KS.load s src;
      let fresh = Kb.create () in
      Kb.load fresh src;
      List.for_all
        (fun obj ->
          let of_store f = B.value (f ()) in
          let st_kb = of_store (fun () -> Kb.stable_models fresh ~obj)
          and af_kb = of_store (fun () -> Kb.assumption_free_models fresh ~obj)
          and st_ref =
            of_store (fun () ->
                Ordered.Stable.stable_models (Kb.gop fresh ~obj))
          in
          let st1 = of_store (fun () -> KS.stable_models s ~obj) in
          let before = (KS.counters s).KS.hits in
          let st2 = of_store (fun () -> KS.stable_models s ~obj) in
          let hit = (KS.counters s).KS.hits = before + 1 in
          let af = of_store (fun () -> KS.assumption_free_models s ~obj) in
          hit
          && List.equal Interp.equal st1 st_ref
          && interp_set_equal st1 st_kb
          && interp_set_equal st2 st_kb
          && interp_set_equal af af_kb
          && Interp.equal (KS.least_model s ~obj) (Kb.least_model fresh ~obj))
        (KS.objects s))

let suite =
  [ Alcotest.test_case "hit after repeat" `Quick test_hit_after_repeat;
    Alcotest.test_case "delta eviction across mutations" `Quick
      test_delta_eviction;
    Alcotest.test_case "partial results are not cached" `Quick
      test_partial_not_cached;
    prop_cached_equals_uncached
  ]
