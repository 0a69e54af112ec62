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
  ignore (KS.query s ~obj:"bot" (Helpers.lit "fly(penguin)"));
  ignore (KS.query s ~obj:"bot" (Helpers.lit "fly(tweety)"));
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
  KS.define s ~isa:[ "bot" ] "extra" (Helpers.rules "p.");
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
  ignore (KS.query s ~obj:"extra" (Helpers.lit "p"));
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
    (KS.query s ~obj:"extra" (Helpers.lit "q") = Interp.True);
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
    (KS.query s ~obj:"extra" (Helpers.lit "w(zed)") = Interp.True);
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
    (KS.query s ~obj:"extra" (Helpers.lit "q") = Interp.Undefined);

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

  (* flush-on-write is invalidate after the write: the write carries
     bot's entries, the flush empties the cache, and the next read is a
     miss *)
  KS.add_rule_src s ~obj:"extra" "z.";
  Alcotest.(check bool) "write carried entries" true
    ((KS.counters s).KS.entries > 0);
  KS.invalidate s;
  Alcotest.(check int) "invalidate: cache emptied" 0 (KS.counters s).KS.entries;
  let m = (KS.counters s).KS.misses in
  prime_bot ();
  Alcotest.(check int) "invalidate: recompute is a miss" (m + 1)
    (KS.counters s).KS.misses

(* A viewpoint's preferred record survives a write it cannot see (the
   next read is a hit, with no compilation) and is evicted whole by a
   write it sees and by a preference edit (one eviction, then exactly
   one more compilation). *)
let test_preferred_eviction () =
  let s =
    session_with
      "component top { f : fly(X) :- bird(X). b : bird(tweety). }\n\
       component bot extends top { nf : -fly(X) :- bird(X). }\n\
       component other { p. }"
  in
  let m = Governor.Metrics.create () in
  KS.use_metrics s m;
  let get = Governor.Metrics.get m in
  let read () = ignore (B.value (KS.preferred_models s ~obj:"bot")) in
  read ();
  Alcotest.(check int) "first read compiles" 1 (get "prefer_compilations");
  let hits = (KS.counters s).KS.hits in
  KS.add_rule_src s ~obj:"other" "q :- p.";
  read ();
  Alcotest.(check int) "unseen write: a hit" (hits + 1) (KS.counters s).KS.hits;
  Alcotest.(check int) "unseen write: no compilation" 1
    (get "prefer_compilations");
  Alcotest.(check int) "unseen write: no eviction" 0 (get "inc_evictions");
  let evicts name n write =
    write ();
    Alcotest.(check int) (name ^ ": one eviction") n (get "inc_evictions");
    read ();
    read ();
    Alcotest.(check int) (name ^ ": one more compilation") (n + 1)
      (get "prefer_compilations")
  in
  evicts "seen write" 1 (fun () -> KS.add_rule_src s ~obj:"top" "bird(polly).");
  evicts "set_preference" 2 (fun () -> KS.set_preference s ~rule:"nf" ~over:"f");
  evicts "clear_preference" 3 (fun () ->
      ignore (KS.clear_preference s ~rule:"nf" ~over:"f" : bool))

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
   with from-scratch answers on random ordered programs, across every
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
      let fresh = Kb.Store.create () in
      Kb.Store.load fresh src;
      List.for_all
        (fun obj ->
          let of_store f = B.value (f ()) in
          let st_kb = of_store (fun () -> Scratch.stable_models fresh ~obj)
          and af_kb =
            of_store (fun () -> Scratch.assumption_free_models fresh ~obj)
          and st_ref =
            of_store (fun () ->
                Ordered.Stable.stable_models (Scratch.gop fresh ~obj))
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
          && Interp.equal (KS.least_model s ~obj)
               (Scratch.least_model fresh ~obj))
        (KS.objects s))

(* Stable models under random writes: after every [add_rule] or
   [remove_rule], the session's stable models of a viewpoint, at every
   limit and unlimited, equal a scratch kernel listing over the
   session's program (same order).  The session lists them from the
   part lists it carried across the writes, and from its repaired least
   model when a query has cached one.  Scaled by FUZZ_ITERS (wired as
   session in the Makefile's fuzz target). *)
let prop_models_under_writes =
  let count =
    match Option.bind (Sys.getenv_opt "FUZZ_ITERS") int_of_string_opt with
    | Some n when n > 60 -> n
    | _ -> 60
  in
  let gen_write =
    QCheck2.Gen.(
      quad bool (int_bound 2) (Test_props.gen_negative_rule 4)
        (pair (int_bound 2) bool))
  in
  let print_write (add, o, r, (w, q)) =
    Printf.sprintf "%s c%d %s (view %d%s)"
      (if add then "add" else "remove")
      o (Rule.to_string r) w
      (if q then ", least first" else "")
  in
  qcheck ~count
    ~print:(fun (p, ws) ->
      print_program p ^ " / " ^ String.concat "; " (List.map print_write ws))
    "session stable models = scratch kernel under random writes"
    QCheck2.Gen.(
      pair (Test_props.gen_ordered 4) (list_size (int_range 1 8) gen_write))
    (fun (p, writes) ->
      let s = KS.create () in
      KS.load s (print_program p);
      let objs = Array.of_list (KS.objects s) in
      let pick i = objs.(i mod Array.length objs) in
      let agrees obj =
        let g = ground_at (KS.to_program s) obj in
        let full = B.value (Solve.Kernel.stable_models g) in
        List.for_all
          (fun limit ->
            List.equal Interp.equal
              (B.value (KS.stable_models ?limit s ~obj))
              (B.value (Solve.Kernel.stable_models ?limit g)))
          (None :: List.init (List.length full + 2) Option.some)
      in
      Array.for_all agrees objs
      && List.for_all
           (fun (add, o, r, (w, least_first)) ->
             let obj = pick o in
             (if add then KS.add_rule s ~obj r
              else
                match KS.rules s obj with
                | [] -> ()
                | rs ->
                  ignore
                    (KS.remove_rule s ~obj
                       (List.nth rs (Hashtbl.hash r mod List.length rs))
                      : bool));
             let view = pick w in
             if least_first then ignore (KS.least_model s ~obj:view);
             agrees view)
           writes)

(* Preferred models under random writes: KBs with named rules and
   preferences, then random rule and preference writes.  After every
   write, a viewpoint's preferred models, at every limit and unlimited,
   equal the kernel's stable models of a scratch compilation of its
   preference spec over a store replayed from the session's mutations
   (same order); where one side raises a [Diag] error, the other raises
   the same one.  Scaled by FUZZ_ITERS (the session fuzz entry). *)

let diag f =
  match f () with v -> Ok v | exception Ordered.Diag.Error e -> Error e

let describe_pref_write (k, o, r, (a, b)) =
  match k mod 4 with
  | 0 ->
    Printf.sprintf "add_rule c%d %s%s" o
      (if a < 8 then Printf.sprintf "r%d : " a else "")
      (Rule.to_string r)
  | 1 -> Printf.sprintf "remove_rule c%d #%d" o a
  | 2 -> Printf.sprintf "set_preference r%d > r%d" a b
  | _ -> Printf.sprintf "clear_preference #%d" a

let prop_preferred_under_writes =
  let count =
    match Option.bind (Sys.getenv_opt "FUZZ_ITERS") int_of_string_opt with
    | Some n when n > 60 -> n
    | _ -> 60
  in
  let gen_write =
    QCheck2.Gen.(
      pair
        (quad (int_bound 3) (int_bound 2) (Test_props.gen_negative_rule 4)
           (pair (int_bound 11) (int_bound 11)))
        (int_bound 2))
  in
  qcheck ~count
    ~print:(fun ((p, prefs), ws) ->
      Test_diff_prefer.print_case (p, prefs)
      ^ " / "
      ^ String.concat "; "
          (List.map
             (fun (w, v) -> Printf.sprintf "%s (view %d)" (describe_pref_write w) v)
             ws))
    "session preferred models = scratch compile under random writes"
    QCheck2.Gen.(
      pair (Test_diff_prefer.gen_preferred 4)
        (list_size (int_range 1 8) gen_write))
    (fun ((p, prefs), writes) ->
      let s = KS.create () in
      let records = ref [] in
      KS.on_mutation s (fun m -> records := m :: !records);
      KS.load s (print_program p);
      List.iter
        (fun (rule, over) ->
          ignore (diag (fun () -> KS.set_preference s ~rule ~over)))
        prefs;
      let objs = Array.of_list (KS.objects s) in
      let pick i = objs.(i mod Array.length objs) in
      let agrees obj =
        let kb = Kb.Store.create () in
        List.iter (Kb.Store.apply kb) (List.rev !records);
        let scratch limit =
          diag (fun () ->
              B.value
                (Solve.Kernel.stable_models ?limit
                   (Prefer.Compile.gop
                      (Prefer.Compile.compile (Kb.Store.prefer_spec kb ~obj)))))
        in
        let n = match scratch None with Ok ms -> List.length ms | _ -> 0 in
        List.for_all
          (fun limit ->
            match
              (diag (fun () -> B.value (KS.preferred_models ?limit s ~obj)),
               scratch limit)
            with
            | Ok a, Ok b -> List.equal Interp.equal a b
            | Error e, Error e' -> e = e'
            | _ -> false)
          (None :: List.init (n + 2) Option.some)
      in
      Array.for_all agrees objs
      && List.for_all
           (fun ((k, o, r, (a, b)), view) ->
             let obj = pick o in
             ignore
               (diag (fun () ->
                    match k mod 4 with
                    | 0 ->
                      KS.add_rule s ~obj
                        (if a < 8 then Rule.with_name (Printf.sprintf "r%d" a) r
                         else r)
                    | 1 -> (
                      match KS.rules s obj with
                      | [] -> ()
                      | rs ->
                        ignore
                          (KS.remove_rule s ~obj (List.nth rs (a mod List.length rs))
                            : bool))
                    | 2 ->
                      KS.set_preference s ~rule:(Printf.sprintf "r%d" a)
                        ~over:(Printf.sprintf "r%d" b)
                    | _ -> (
                      match KS.preferences s with
                      | [] -> ()
                      | ps ->
                        let rule, over = List.nth ps (a mod List.length ps) in
                        ignore (KS.clear_preference s ~rule ~over : bool))));
             agrees (pick view))
           writes)

(* ------------------------------------------------------------------ *)
(* A write costs its cone, not the KB                                  *)
(* ------------------------------------------------------------------ *)

(* The serving benchmark's write-mix shape: a class chain k0 <- ... <- k5
   and [n] individuals below k5, each with five entities and their trait
   facts; eight individuals are warmed viewpoints, and the write adds a
   rule to k5, which all eight see. *)
let write_mix_kb n =
  let b = Buffer.create (n * 256) in
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
  for o = 0 to n - 1 do
    Printf.bprintf b "component o%d extends k5 {" o;
    for j = 1 to 5 do
      Printf.bprintf b " ent(e%d_%d)." o j;
      for t = 1 to 5 do
        Printf.bprintf b " %st%d(e%d_%d)." (if t = j then "" else "-") t o j
      done
    done;
    Buffer.add_string b " }\n"
  done;
  Buffer.contents b

(* Words [f ()] allocates: minor words, plus the blocks too large for the
   minor heap, which go straight to the major heap (major words minus the
   promoted ones; the minor heap is emptied first, so every promoted word
   was allocated by [f] itself).  Allocation is a deterministic stand-in
   for work. *)
let words f =
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. promoted1 -. (major0 -. promoted0))

(* Words one [add_rule] allocates, with eight viewpoints warmed. *)
let write_words n =
  let s = KS.create () in
  KS.load s (write_mix_kb n);
  let views = List.init 8 (fun i -> Printf.sprintf "o%d" (i * n / 8)) in
  let warm () =
    List.iter
      (fun o ->
        ignore (KS.least_model s ~obj:o);
        ignore (KS.stable_models ~limit:4 s ~obj:o))
      views
  in
  let r = rule "w0(X) :- f5(X), alive(X)." in
  warm ();
  (* one write and its undo first, so the measured write meets the
     same warmed state it would in steady serving *)
  KS.add_rule s ~obj:"k5" r;
  ignore (KS.remove_rule s ~obj:"k5" r : bool);
  warm ();
  let w = words (fun () -> KS.add_rule s ~obj:"k5" r) in
  let c = KS.counters s in
  Alcotest.(check int) "no fallback" 0 c.KS.fallbacks;
  w

(* The 2x ratio keeps the write's cost independent of the KB's size;
   the absolute bound keeps the eight repairs proportional to the edit
   (recomputing each view's universe or converting its least model
   costs more than that). *)
let test_write_costs_its_cone () =
  let small = write_words 200 and large = write_words 2000 in
  if large > 2. *. small then
    Alcotest.failf
      "one write allocates %.0f words at 2000 objects, %.0f at 200 (bound: 2x)"
      large small;
  if small > 130_000. then
    Alcotest.failf "one write allocates %.0f words at 200 objects (bound: 130000)"
      small

(* A define adds one object: it extends the cached ordered program by
   one component instead of dropping it, so the first query on the fresh
   object grounds its view without rebuilding the program over the
   whole KB.  Measured at 2000 objects: one define plus that query. *)
let test_define_costs_its_object () =
  let s = KS.create () in
  KS.load s (write_mix_kb 2000);
  (* a serving session: one viewpoint has answered already *)
  ignore (KS.query s ~obj:"o0" (lit "g5(e0_1)") : Interp.value);
  (* one individual of the KB's shape: an entity and its trait facts *)
  let rules =
    rule "ent(x)."
    :: List.init 5 (fun t ->
           rule (Printf.sprintf "%st%d(x)." (if t = 0 then "" else "-") (t + 1)))
  in
  let v = ref Interp.Undefined in
  let w =
    words (fun () ->
        KS.define s ~isa:[ "k5" ] "fresh" rules;
        v := KS.query s ~obj:"fresh" (lit "g5(x)"))
  in
  Alcotest.(check testable_value) "answer"
    (Interp.value_lit (Scratch.least_model (KS.store s) ~obj:"fresh") (lit "g5(x)"))
    !v;
  if w > 75_000. then
    Alcotest.failf
      "a define and the first query on it allocate %.0f words at 2000 objects \
       (bound: 75000)"
      w

(* ------------------------------------------------------------------ *)
(* A models hit costs its bytes                                        *)
(* ------------------------------------------------------------------ *)

(* A warmed [models] request on the same KB shape, through the server's
   whole read path: decode, the session's cache hit and the JSON
   encoder.  The cache entry keeps the answer's wire text, so a hit
   prints no literal: what it allocates is the decoded request, the
   response object and one copy of the cached text into the response
   line — a constant for this KB, however many literals the models hold
   (rendering them costs several words a literal, 80 a literal through
   Format). *)
let test_models_hit_costs_its_bytes () =
  let module W = Server.Wire in
  let e = Server.Engine.create () in
  let call fields =
    W.to_string (Server.Engine.handle_line e (W.to_string (W.Obj fields)))
  in
  ignore (call [ ("op", W.String "load"); ("src", W.String (write_mix_kb 16)) ]);
  let models () =
    call
      [ ("op", W.String "models"); ("obj", W.String "o5");
        ("kind", W.String "stable"); ("limit", W.Int 4) ]
  in
  let first = models () in
  ignore (models ());
  let hits = (KS.counters (Server.Engine.session e)).KS.hits in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let out = models () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "answered from the cache" (hits + 1)
    (KS.counters (Server.Engine.session e)).KS.hits;
  Alcotest.(check string) "a hit answers what the miss did" first out;
  let literals =
    match W.parse out with
    | Ok j -> (
      match W.member "models" j with
      | Some (W.List ms) ->
        List.fold_left
          (fun n m -> match m with W.List ls -> n + List.length ls | _ -> n)
          0 ms
      | _ -> Alcotest.failf "no models in %s" out)
    | Error e -> Alcotest.failf "unparsable response: %s" (W.error_to_string e)
  in
  if literals < 100 then Alcotest.failf "only %d literals in %s" literals out;
  if words > 1500. then
    Alcotest.failf
      "a models hit allocates %.0f minor words for %d literals (bound: 1500)"
      words literals

(* A load that fails part-way through its components must change
   nothing: not the master store, not the published view, and no
   mutation record for the log. *)
let test_failed_load_changes_nothing () =
  let s = KS.create () in
  let records = ref 0 in
  KS.on_mutation s (fun _ -> incr records);
  KS.load s "component a { p. }";
  let master = Kb.Store.to_source (KS.store s) in
  let published = KS.to_source s in
  let version = KS.version s and logged = !records in
  List.iter
    (fun (what, src) ->
      (match KS.load s src with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s must fail the load" what);
      Alcotest.(check string) (what ^ ": master unchanged") master
        (Kb.Store.to_source (KS.store s));
      Alcotest.(check (list string)) (what ^ ": master objects unchanged")
        [ "a" ]
        (Kb.Store.objects (KS.store s));
      Alcotest.(check string) (what ^ ": published view unchanged") published
        (KS.to_source s);
      Alcotest.(check int) (what ^ ": no new version") version (KS.version s);
      Alcotest.(check int) (what ^ ": no mutation record") logged !records)
    [ ("a duplicate object", "component b { q. } component a { r. }");
      ("an isa cycle", "component b extends b { q. }");
      ("a two-object isa cycle",
       "component b extends c { q. } component c extends b { r. }")
    ];
  (* reads of every object still work, and the next write publishes the
     master, which holds no [b] *)
  Alcotest.(check string) "a still reads" "{p}"
    (Interp.to_string (KS.least_model s ~obj:"a"));
  KS.add_rule_src s ~obj:"a" "s.";
  Alcotest.(check (list string)) "objects after the next write" [ "a" ]
    (KS.objects s)

(* ------------------------------------------------------------------ *)
(* A failed write changes nothing, as a law                            *)
(* ------------------------------------------------------------------ *)

(* Random mutation streams mixing valid writes with invalid ones — a
   duplicate define, an unknown parent, an unknown object, malformed
   rule text, a load whose second component is a duplicate, a load that
   closes an isa cycle, a cyclic or self preference.  A load that closes
   an isa cycle must fail.  After every step the published view must
   equal a fresh store replayed from the mutations recorded so far (each
   one round-tripped through the WAL codec), and the session's least
   model of one viewpoint must equal the scratch least model of that
   store.  A failed write that mutated the master, logged a record or
   published a view breaks the equation at that step or the next.
   Scaled by FUZZ_ITERS (wired as session in the Makefile's fuzz
   target). *)

let names = [| "a"; "b"; "c"; "d"; "e" |]

let rule_texts =
  [| "p."; "q :- p."; "-p :- r."; "r :- -q."; "w(k1)."; "v(X) :- w(X).";
     "n1 : q :- -r."; "n2 : -q :- p."
  |]

let malformed_texts = [| "p :- ."; "q(a"; ":- p."; "p q." |]
let rule_names = [| "n1"; "n2"; "n3" |]

(* One step: a kind and three free indices, resolved against the pools
   above (names beyond the defined ones make unknown objects and
   parents, repeated names make duplicates). *)
type step = int * int * int * int

let pick pool i = pool.(i mod Array.length pool)

let describe ((k, a, b, c) : step) =
  let n = pick names and r = pick rule_texts in
  match k mod 6 with
  | 0 ->
    Printf.sprintf "define %s isa [%s] { %s }" (n a)
      (if b mod 3 = 0 then "" else n b)
      (r c)
  | 1 ->
    Printf.sprintf "add_rule %s %S" (n a)
      (if c mod 3 = 0 then pick malformed_texts b else r b)
  | 2 -> Printf.sprintf "remove_rule %s %S" (n a) (r b)
  | 3 -> (
    match c mod 3 with
    | 0 -> Printf.sprintf "load %s + %s" (n a) (n b)
    | 1 -> Printf.sprintf "load %s extends %s" (n a) (n b)
    | _ -> Printf.sprintf "load %s extends %s extends %s" (n a) (n b) (n a))
  | 4 ->
    Printf.sprintf "prefer %s > %s" (pick rule_names a) (pick rule_names b)
  | _ -> Printf.sprintf "new_version %s" (n a)

let run_step s ((k, a, b, c) : step) =
  let n = pick names and r i = rule (pick rule_texts i) in
  match k mod 6 with
  | 0 -> KS.define s ~isa:(if b mod 3 = 0 then [] else [ n b ]) (n a) [ r c ]
  | 1 ->
    if c mod 3 = 0 then KS.add_rule_src s ~obj:(n a) (pick malformed_texts b)
    else KS.add_rule s ~obj:(n a) (r b)
  | 2 -> ignore (KS.remove_rule s ~obj:(n a) (r b) : bool)
  | 3 ->
    KS.load s
      (match c mod 3 with
      | 0 ->
        Printf.sprintf "component %s { %s } component %s { p. }" (n a)
          (pick rule_texts c) (n b)
      | 1 ->
        Printf.sprintf "component %s extends %s { %s }" (n a) (n b)
          (pick rule_texts c)
      | _ ->
        Printf.sprintf
          "component %s extends %s { %s } component %s extends %s { p. }"
          (n a) (n b) (pick rule_texts c) (n b) (n a))
  | 4 -> KS.set_preference s ~rule:(pick rule_names a) ~over:(pick rule_names b)
  | _ -> ignore (KS.new_version s (n a) : string)

(* The loads that close an isa cycle: a self-extension, and the
   two-component loop (a duplicate name when its two names agree or one
   is already defined — a failure either way). *)
let closes_cycle ((k, a, b, c) : step) =
  k mod 6 = 3
  && (c mod 3 = 2 || (c mod 3 = 1 && pick names a = pick names b))

let replay records =
  let kb = Kb.Store.create () in
  List.iter
    (fun m ->
      match Persist.Record.(decode_mutation (encode_mutation m)) with
      | Ok m -> Kb.Store.apply kb m
      | Error e -> Alcotest.failf "record does not round-trip: %s" e)
    records;
  kb

let view_equals_store s kb =
  let objs = KS.objects s in
  objs = Kb.Store.objects kb
  && List.for_all
       (fun o ->
         KS.parents s o = Kb.Store.parents kb o
         && List.equal Rule.equal (KS.rules s o) (Kb.Store.rules kb o))
       objs
  && KS.preferences s = Kb.Store.preferences kb

let prop_failed_write_changes_nothing =
  let gen_step =
    QCheck2.Gen.(
      quad (int_bound 5) (int_bound 7) (int_bound 7) (int_bound 11))
  in
  let count =
    match Option.bind (Sys.getenv_opt "FUZZ_ITERS") int_of_string_opt with
    | Some n when n > 80 -> n
    | _ -> 80
  in
  qcheck ~count
    ~print:(fun (steps, _) -> String.concat "; " (List.map describe steps))
    "a failed write changes nothing"
    QCheck2.Gen.(pair (list_size (int_range 4 16) gen_step) (int_bound 7))
    (fun (steps, view) ->
      let s = KS.create () in
      let records = ref [] in
      KS.on_mutation s (fun m -> records := m :: !records);
      KS.load s "component a { p. n1 : q :- p. }";
      List.for_all
        (fun step ->
          let failed =
            match run_step s step with
            | () -> false
            | exception
                (Invalid_argument _ | Lang.Parser.Error _ | Lang.Lexer.Error _
                | Ordered.Diag.Error _) ->
              true
          in
          let kb = replay (List.rev !records) in
          (failed || not (closes_cycle step))
          && view_equals_store s kb
          &&
          (* no write leaves an invalid order: every object still reads *)
          let obj = pick (Array.of_list (KS.objects s)) view in
          Interp.equal (KS.least_model s ~obj) (Scratch.least_model kb ~obj))
        steps)

let suite =
  [ Alcotest.test_case "hit after repeat" `Quick test_hit_after_repeat;
    Alcotest.test_case "a write costs its cone, not the KB" `Quick
      test_write_costs_its_cone;
    Alcotest.test_case "a define costs its object" `Quick
      test_define_costs_its_object;
    Alcotest.test_case "a models hit costs its bytes" `Quick
      test_models_hit_costs_its_bytes;
    Alcotest.test_case "delta eviction across mutations" `Quick
      test_delta_eviction;
    Alcotest.test_case "a preferred record evicts whole" `Quick
      test_preferred_eviction;
    Alcotest.test_case "partial results are not cached" `Quick
      test_partial_not_cached;
    Alcotest.test_case "a failed load changes nothing" `Quick
      test_failed_load_changes_nothing;
    prop_cached_equals_uncached;
    prop_models_under_writes;
    prop_preferred_under_writes;
    prop_failed_write_changes_nothing
  ]
