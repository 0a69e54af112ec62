(* Resource governance: deterministic fault injection, anytime prefix
   guarantees, typed diagnostics, and exhaustion stickiness.

   The CLI-level contract (--timeout 0 exits 3 on every subcommand, the
   partial-models warning, exit codes 0/2/3) is exercised end-to-end in
   the cram test [cli.t/run.t]. *)

open Logic
module B = Ordered.Budget
module W = Workloads

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_trip_at () =
  let b = B.with_trip_at ~step:3 () in
  B.tick b;
  B.tick b;
  (match B.tick b with
  | exception B.Exhausted B.Fault -> ()
  | () -> Alcotest.fail "third tick must trip the fault"
  | exception e -> raise e);
  (* exactly once: the fault is disarmed, later ticks succeed and the
     budget is not marked spent *)
  B.tick b;
  B.tick b;
  Alcotest.(check int) "all five ticks counted" 5 (B.steps b);
  Alcotest.(check bool) "fault is not sticky" true (B.exhausted b = None);
  (* a first-step trip fires on the very first tick *)
  let b1 = B.with_trip_at ~step:1 () in
  match B.tick b1 with
  | exception B.Exhausted B.Fault -> ()
  | () -> Alcotest.fail "step-1 fault must trip on the first tick"

let test_trip_at_mid_enumeration () =
  (* the injected fault surfaces as an ordinary Partial result *)
  let g = Ordered.Bridge.ground_ov (W.even_loops 2) in
  match
    Ordered.Stable.assumption_free_models ~budget:(B.with_trip_at ~step:8 ()) g
  with
  | B.Partial (_, B.Fault) -> ()
  | B.Partial (_, r) ->
    Alcotest.failf "wrong reason: %s" (B.reason_to_string r)
  | B.Complete _ -> Alcotest.fail "fault must truncate the enumeration"

(* ------------------------------------------------------------------ *)
(* Sticky exhaustion                                                   *)
(* ------------------------------------------------------------------ *)

let test_sticky () =
  let b = B.make ~max_steps:2 () in
  B.tick b;
  B.tick b;
  (match B.tick b with
  | exception B.Exhausted B.Steps -> ()
  | () -> Alcotest.fail "step budget must trip");
  Alcotest.(check bool) "marked spent" true (B.exhausted b = Some B.Steps);
  (* every later use re-raises: an exhausted budget cannot be reused *)
  (match B.tick b with
  | exception B.Exhausted B.Steps -> ()
  | () -> Alcotest.fail "tick on a spent budget must re-raise");
  match B.check b with
  | exception B.Exhausted B.Steps -> ()
  | () -> Alcotest.fail "check on a spent budget must re-raise"

(* A budget trips on its deadline or its step limit (or an injected
   fault) and on nothing else: without limits no tick or check trips,
   and the wire's reason grammar is exactly the three tags. *)
let test_reasons () =
  let b = B.make () in
  for _ = 1 to 1000 do
    B.tick b;
    B.check b;
    B.poll_deadline b
  done;
  Alcotest.(check int) "steps counted" 1000 (B.steps b);
  Alcotest.(check bool) "never spent" true (B.exhausted b = None);
  Alcotest.(check (list string)) "reason tags"
    [ "deadline"; "steps"; "fault" ]
    (List.map B.reason_to_string [ B.Deadline; B.Steps; B.Fault ])

(* ------------------------------------------------------------------ *)
(* Anytime prefix guarantee                                            *)
(* ------------------------------------------------------------------ *)

let rec is_prefix eq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> eq x y && is_prefix eq xs' ys'
  | _ :: _, [] -> false

let af_gop () = Ordered.Bridge.ground_ov (W.even_loops 3)

(* total ticks of the unbudgeted run, measured with a fresh counter *)
let full_run g =
  let b = B.make () in
  match Ordered.Stable.assumption_free_models ~budget:b g with
  | B.Complete ms -> (ms, B.steps b)
  | B.Partial _ -> Alcotest.fail "unlimited run cannot be partial"

let check_prefix g full n =
  match
    Ordered.Stable.assumption_free_models ~budget:(B.make ~max_steps:n ()) g
  with
  | B.Complete ms ->
    Alcotest.(check bool)
      (Printf.sprintf "complete at %d steps equals full run" n)
      true
      (List.length ms = List.length full
      && List.for_all2 Interp.equal ms full);
    `Complete
  | B.Partial (ms, B.Steps) ->
    Alcotest.(check bool)
      (Printf.sprintf "partial at %d steps is a prefix" n)
      true
      (is_prefix Interp.equal ms full);
    `Partial (List.length ms)
  | B.Partial (_, r) ->
    Alcotest.failf "unexpected reason %s" (B.reason_to_string r)

let test_prefix_property () =
  let g = af_gop () in
  let full, total = full_run g in
  Alcotest.(check bool) "workload branches" true (List.length full > 1);
  let saw_nonempty_partial = ref false in
  for n = 0 to total + 1 do
    match check_prefix g full n with
    | `Partial k when k > 0 -> saw_nonempty_partial := true
    | _ -> ()
  done;
  Alcotest.(check bool)
    "some step budget yields a nonempty strict prefix" true
    !saw_nonempty_partial;
  (* a budget at least as large as the full run completes *)
  match check_prefix g full total with
  | `Complete -> ()
  | `Partial _ -> Alcotest.fail "budget = total ticks must complete"

let test_prefix_property_random =
  QCheck.Test.make ~count:60 ~name:"random step budgets yield prefixes"
    QCheck.(pair (int_bound 3000) (int_range 1 4))
    (fun (n, k) ->
      let g = Ordered.Bridge.ground_ov (W.even_loops k) in
      let full, _ = full_run g in
      match
        Ordered.Stable.assumption_free_models
          ~budget:(B.make ~max_steps:n ())
          g
      with
      | B.Complete ms ->
        List.length ms = List.length full
        && List.for_all2 Interp.equal ms full
      | B.Partial (ms, B.Steps) -> is_prefix Interp.equal ms full
      | B.Partial _ -> false)

(* Sweep the injected fault over every tick position of the pruned
   search's complete run.  Ticks happen at search nodes *and* inside
   [Vfix.propagate]'s queue loop, so the sweep necessarily covers budgets
   tripping mid-propagation; at every position the surviving models must
   be a prefix of the full enumeration. *)
let test_fault_sweep_pruned () =
  let g = af_gop () in
  let full, total = full_run g in
  for n = 1 to total do
    match
      Ordered.Stable.assumption_free_models ~budget:(B.with_trip_at ~step:n ())
        g
    with
    | B.Partial (ms, B.Fault) ->
      Alcotest.(check bool)
        (Printf.sprintf "fault at tick %d yields a prefix" n)
        true
        (is_prefix Interp.equal ms full)
    | B.Partial (_, r) ->
      Alcotest.failf "fault at tick %d: wrong reason %s" n
        (B.reason_to_string r)
    | B.Complete _ ->
      Alcotest.failf "fault at tick %d <= total %d must truncate" n total
  done

(* The same sweep over the compiled kernel.  Its ticks land at search
   nodes, inside the trail propagation loop (one per derived literal) and
   per conflict-analysis resolution step, so the sweep covers faults
   tripping mid-propagation and mid-analysis; every position must still
   surface as a sound prefix of the (identical) pruned enumeration. *)
let test_fault_sweep_compiled () =
  let g = af_gop () in
  let full, _ = full_run g in
  let total =
    let b = B.make () in
    match Solve.Kernel.assumption_free_models ~budget:b g with
    | B.Complete ms ->
      Alcotest.(check bool) "compiled full run equals pruned" true
        (List.length ms = List.length full
        && List.for_all2 Interp.equal ms full);
      B.steps b
    | B.Partial _ -> Alcotest.fail "unlimited compiled run cannot be partial"
  in
  for n = 1 to total do
    match
      Solve.Kernel.assumption_free_models ~budget:(B.with_trip_at ~step:n ()) g
    with
    | B.Partial (ms, B.Fault) ->
      Alcotest.(check bool)
        (Printf.sprintf "compiled fault at tick %d yields a prefix" n)
        true
        (is_prefix Interp.equal ms full)
    | B.Partial (_, r) ->
      Alcotest.failf "compiled fault at tick %d: wrong reason %s" n
        (B.reason_to_string r)
    | B.Complete _ ->
      Alcotest.failf "compiled fault at tick %d <= total %d must truncate" n
        total
  done

(* The same discipline over the incremental-repair path (lib/inc):
   sweep the trip point across a full reground-plus-repair run of a
   single-rule insertion.  At every position the fault must surface as
   [Budget.Exhausted Fault] out of the repair entry points — never a
   silently wrong grounding or model — and the cached state it aborted
   out of must still be repairable: an untripped rerun from the same
   state lands exactly on the scratch least model. *)
let test_fault_sweep_repair () =
  let src =
    "component c0 { bird(tweety). bird(sam). fly(X) :- bird(X). }\n\
     component c1 extends c0 { -fly(sam). swim(X) :- bird(X), -fly(X). }"
  in
  let p = Helpers.program src in
  let c = Ordered.Program.component_id_exn p "c1" in
  let p2 =
    Ordered.Program.add_rules p c
      [ Lang.Parser.parse_rule "nest(X) :- bird(X), fly(X)." ]
  in
  let scratch = Ordered.Vfix.least_model (Ordered.Gop.ground p2 c) in
  let state1 = Inc.Reground.ground p c in
  let previous = Ordered.Vfix.least_model state1.Inc.Reground.gop in
  let run budget =
    match Inc.Reground.reground ?budget state1 ~program:p2 with
    | Error f ->
      Alcotest.failf "unexpected fallback: %a" Helpers.pp_fallback f
    | Ok (state2, delta) -> (
      match
        Inc.Repair.least_model ?budget ~previous state2.Inc.Reground.gop
          delta
      with
      | Inc.Repair.Unchanged ->
        Alcotest.fail "an insertion with instances cannot be a no-op"
      | Inc.Repair.Repaired m | Inc.Repair.Recomputed m -> m)
  in
  let b = B.make () in
  Alcotest.(check bool)
    "full repair equals scratch" true
    (Interp.equal (run (Some b)) scratch);
  let total = B.steps b in
  Alcotest.(check bool) "repair ticks the budget" true (total > 0);
  for n = 1 to total do
    match run (Some (B.with_trip_at ~step:n ())) with
    | exception B.Exhausted B.Fault ->
      Alcotest.(check bool)
        (Printf.sprintf "fault at tick %d leaves the state repairable" n)
        true
        (Interp.equal (run None) scratch)
    | _ ->
      Alcotest.failf "fault at tick %d <= total %d must raise" n total
  done

let test_prefix_property_compiled =
  QCheck.Test.make ~count:60
    ~name:"compiled kernel: step budgets yield prefixes"
    QCheck.(pair (int_bound 3000) (int_range 1 4))
    (fun (n, k) ->
      let g = Ordered.Bridge.ground_ov (W.even_loops k) in
      let full =
        match Solve.Kernel.assumption_free_models g with
        | B.Complete ms -> ms
        | B.Partial _ -> QCheck.Test.fail_report "unlimited run partial"
      in
      match
        Solve.Kernel.assumption_free_models ~budget:(B.make ~max_steps:n ()) g
      with
      | B.Complete ms ->
        List.length ms = List.length full
        && List.for_all2 Interp.equal ms full
      | B.Partial (ms, B.Steps) -> is_prefix Interp.equal ms full
      | B.Partial _ -> false)

let test_prefix_property_naive =
  QCheck.Test.make ~count:40 ~name:"naive oracle: step budgets yield prefixes"
    QCheck.(pair (int_bound 3000) (int_range 1 3))
    (fun (n, k) ->
      let g = Ordered.Bridge.ground_ov (W.even_loops k) in
      let full =
        match Oracle.Stable.assumption_free_models g with
        | B.Complete ms -> ms
        | B.Partial _ -> QCheck.Test.fail_report "unlimited run partial"
      in
      match
        Oracle.Stable.assumption_free_models
          ~budget:(B.make ~max_steps:n ())
          g
      with
      | B.Complete ms ->
        List.length ms = List.length full
        && List.for_all2 Interp.equal ms full
      | B.Partial (ms, B.Steps) -> is_prefix Interp.equal ms full
      | B.Partial _ -> false)

let test_prefix_property_total =
  QCheck.Test.make ~count:40
    ~name:"total models: step budgets yield prefixes"
    QCheck.(pair (int_bound 3000) (int_range 1 3))
    (fun (n, k) ->
      let g = Ordered.Bridge.ground_ov (W.even_loops k) in
      let full =
        match Solve.Kernel.total_models g with
        | B.Complete ms -> ms
        | B.Partial _ -> QCheck.Test.fail_report "unlimited run partial"
      in
      match
        Solve.Kernel.total_models ~budget:(B.make ~max_steps:n ()) g
      with
      | B.Complete ms ->
        List.length ms = List.length full
        && List.for_all2 Interp.equal ms full
      | B.Partial (ms, B.Steps) -> is_prefix Interp.equal ms full
      | B.Partial _ -> false)

let test_zero_budgets () =
  let g = af_gop () in
  (match
     Ordered.Stable.assumption_free_models ~budget:(B.make ~max_steps:0 ()) g
   with
  | B.Partial ([], B.Steps) -> ()
  | _ -> Alcotest.fail "zero step budget must yield Partial ([], Steps)");
  match
    Ordered.Stable.assumption_free_models ~budget:(B.make ~timeout:0. ()) g
  with
  | B.Partial ([], B.Deadline) -> ()
  | _ -> Alcotest.fail "zero timeout must yield Partial ([], Deadline)"

(* k independent even loops, each overruled towards falsity by a CWA
   component above: 3^k assumption-free models, 2^k of them stable. *)
let cwa_even_loops k =
  let p = W.cwa_loops k in
  Ordered.Gop.ground p (Ordered.Program.component_id_exn p "main")

(* Stable models are listed as the product of the parts' certified
   models; the listing polls the deadline once per model.  At k = 40 the
   product has 2^40 models, so the deadline must stop it, with an
   in-order prefix of the contract order in which every model is
   stable. *)
let test_maximality_deadline () =
  let g = cwa_even_loops 40 in
  let t0 = Unix.gettimeofday () in
  let r = Solve.Kernel.stable_models ~budget:(B.make ~timeout:0.5 ()) g in
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed >= 1.0 then
    Alcotest.failf "listing ignored the deadline: %.2f s" elapsed;
  match r with
  | B.Partial (ms, B.Deadline) ->
    Alcotest.(check bool) "some models listed" true (ms <> []);
    let first = List.filteri (fun i _ -> i < 64) ms in
    Alcotest.(check bool) "in-order prefix of the contract order" true
      (List.equal Interp.equal first
         (B.value
            (Solve.Kernel.stable_models ~limit:(List.length first) g)));
    Alcotest.(check bool) "each listed model is stable" true
      (List.for_all (Solve.Kernel.is_stable g) first)
  | _ -> Alcotest.fail "expected Partial Deadline"

(* One part: a rule over every loop's atom joins the loops, so the
   certified models come from one enumeration.  A fault at any tick of
   the full run must leave a prefix of the unlimited list holding only
   models the oracle finds maximal among all assumption-free ones. *)
let test_single_part_budget () =
  let p =
    Ordered.Program.parse_exn
      "component top { -p0. -q0. -p1. -q1. -p2. -q2. }\n\
       component main extends top { p0 :- -q0. q0 :- -p0. p1 :- -q1. \
       q1 :- -p1. p2 :- -q2. q2 :- -p2. all :- p0, p1, p2. }"
  in
  let g = Ordered.Gop.ground p (Ordered.Program.component_id_exn p "main") in
  let stable = Oracle.maximal (B.value (Oracle.Stable.assumption_free_models g)) in
  let b = B.make () in
  let full = B.value (Solve.Kernel.stable_models ~budget:b g) in
  let total = B.steps b in
  Alcotest.(check int) "2^3 stable models" 8 (List.length full);
  let saw_partial = ref false in
  for n = 1 to total do
    match Solve.Kernel.stable_models ~budget:(B.with_trip_at ~step:n ()) g with
    | B.Partial (ms, B.Fault) ->
      if ms <> [] then saw_partial := true;
      Alcotest.(check bool)
        (Printf.sprintf "fault at tick %d yields a prefix" n)
        true
        (is_prefix Interp.equal ms full);
      List.iter
        (fun m ->
          if not (List.exists (Interp.equal m) stable) then
            Alcotest.failf "fault at tick %d returned %s, which is not stable"
              n (Interp.to_string m))
        ms
    | B.Partial (_, r) ->
      Alcotest.failf "fault at tick %d: wrong reason %s" n
        (B.reason_to_string r)
    | B.Complete _ ->
      Alcotest.failf "fault at tick %d <= total %d must truncate" n total
  done;
  Alcotest.(check bool) "some fault leaves a nonempty prefix" true !saw_partial

(* ------------------------------------------------------------------ *)
(* Boolean queries are not anytime                                     *)
(* ------------------------------------------------------------------ *)

let test_boolean_queries_raise () =
  let g = af_gop () in
  let l = Lang.Parser.parse_literal "p0" in
  (match Solve.Kernel.cautious ~budget:(B.make ~max_steps:4 ()) g l with
  | exception B.Exhausted B.Steps -> ()
  | (_ : bool) -> Alcotest.fail "cautious under a tiny budget must raise");
  match Solve.Kernel.brave ~budget:(B.make ~max_steps:4 ()) g l with
  | exception B.Exhausted B.Steps -> ()
  | (_ : bool) -> Alcotest.fail "brave under a tiny budget must raise"

(* ------------------------------------------------------------------ *)
(* The instance cap and typed diagnostics                             *)
(* ------------------------------------------------------------------ *)

let test_overflow_diagnostic () =
  (* the one instance cap, distinct from the budget: max_instances
     raises a typed diagnostic naming the offending source rule *)
  let prog = W.islands 4 6 in
  let comp = Ordered.Program.component_id_exn prog "main" in
  match Ordered.Gop.ground ~max_instances:3 prog comp with
  | exception
      Ordered.Diag.Error
        (Ordered.Diag.Grounding_overflow { rule; produced; cap = 3; universe })
    ->
    (* one instance per rule: the fourth source rule trips the cap,
       counted before dedup, over the placeholder universe {a0} *)
    Alcotest.(check string) "the offending rule" "i0_a3 :- i0_a2." rule;
    Alcotest.(check int) "instances counted when the cap tripped" 4 produced;
    Alcotest.(check int) "universe size" 1 universe
  | _ -> Alcotest.fail "overflow must raise a typed Grounding_overflow"

let test_overflow_counts_before_dedup () =
  (* [p(X) :- q(X, Y)] has 9 instances over {a, b, c} and keeps 9; the
     second, identical rule keeps none, yet its 9 count against the cap *)
  let prog =
    Helpers.program
      "component main { p(X) :- q(X, Y). p(X) :- q(X, Y). q(a, b). q(c, c). }"
  in
  let comp = Ordered.Program.component_id_exn prog "main" in
  match Ordered.Gop.ground ~max_instances:17 prog comp with
  | exception
      Ordered.Diag.Error
        (Ordered.Diag.Grounding_overflow { rule; produced; cap = 17; universe })
    ->
    Alcotest.(check string) "the offending rule" "p(X) :- q(X, Y)." rule;
    Alcotest.(check int) "counted before dedup" 18 produced;
    Alcotest.(check int) "universe size" 3 universe
  | _ -> Alcotest.fail "overflow must raise a typed Grounding_overflow"

let test_grounding_ticks () =
  (* one tick per candidate of the cross product, surviving or not:
     [big] has 3 x 3 candidates (6 killed by [X < Y]), each fact 1,
     [-big] 3 (one killed by [X > 1]) — 15 *)
  let prog =
    Helpers.program
      "component main { big(X, Y) :- n(X), n(Y), X < Y. n(1). n(2). n(3). \
       -big(X, X) :- n(X), X > 1. }"
  in
  let comp = Ordered.Program.component_id_exn prog "main" in
  let b = B.make () in
  let g = Ordered.Gop.ground ~budget:b prog comp in
  Alcotest.(check int) "one tick per candidate" 15 (B.steps b);
  Alcotest.(check int) "surviving instances" 8 (Ordered.Gop.n_rules g);
  let b' = B.make () in
  ignore (Oracle.Ground.gop ~budget:b' prog comp : Ordered.Gop.t);
  Alcotest.(check int) "as many as the substitution grounder" 15 (B.steps b');
  (* a step budget trips at the same candidate *)
  match Ordered.Gop.ground ~budget:(B.make ~max_steps:14 ()) prog comp with
  | exception B.Exhausted B.Steps -> ()
  | (_ : Ordered.Gop.t) -> Alcotest.fail "14 steps cannot ground 15 candidates"

let test_vfix_trip () =
  (* exhaustion inside the fixpoint engine propagates from Vfix.lfp *)
  let g = W.ground_at (W.chain 50) "main" in
  match Ordered.Vfix.least_model ~budget:(B.make ~max_steps:5 ()) g with
  | exception B.Exhausted B.Steps -> ()
  | (_ : Interp.t) -> Alcotest.fail "fixpoint must trip the step budget"

let test_datalog_trip () =
  let e = Datalog.Engine.load_src "p :- -q. q :- -p. r." in
  match Datalog.Engine.stable_models ~budget:(B.make ~max_steps:2 ()) e with
  | exception B.Exhausted B.Steps -> ()
  | (_ : Atom.Set.t list) ->
    Alcotest.fail "datalog enumeration must trip the step budget"

(* ------------------------------------------------------------------ *)
(* Governor.Backoff: the reconnect schedule                            *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let module K = Governor.Backoff in
  let b = K.make ~base:0.1 ~cap:1.0 ~seed:42 () in
  (* each delay is drawn from [d/2, d] of the un-jittered schedule
     0.1, 0.2, 0.4, 0.8, 1.0, 1.0, ... *)
  let expected = [ 0.1; 0.2; 0.4; 0.8; 1.0; 1.0; 1.0 ] in
  List.iteri
    (fun i d ->
      let got = K.next b in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in [%g, %g], got %g" i (d /. 2.) d got)
        true
        (got >= (d /. 2.) -. 1e-9 && got <= d +. 1e-9))
    expected;
  (* a success resets the schedule to base *)
  K.reset b;
  let d = K.next b in
  Alcotest.(check bool) "back to base after reset" true
    (d >= 0.05 -. 1e-9 && d <= 0.1 +. 1e-9)

let test_backoff_deterministic () =
  let module K = Governor.Backoff in
  let mk () = K.make ~base:0.05 ~cap:2.0 ~seed:7 () in
  let a = mk () and b = mk () in
  for i = 1 to 16 do
    Alcotest.(check (float 0.)) (Printf.sprintf "draw %d agrees" i)
      (K.next a) (K.next b)
  done;
  (* distinct seeds de-correlate: at least one of the first draws
     differs *)
  let c = K.make ~base:0.05 ~cap:2.0 ~seed:8 () in
  let d = mk () in
  let differs = ref false in
  for _ = 1 to 8 do
    if K.next c <> K.next d then differs := true
  done;
  Alcotest.(check bool) "seeds change the sequence" true !differs

let test_backoff_validation () =
  let module K = Governor.Backoff in
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : K.t) -> Alcotest.failf "%s accepted" name
  in
  rejects "non-positive base" (fun () -> K.make ~base:0. ~cap:1. ());
  rejects "cap below base" (fun () -> K.make ~base:1. ~cap:0.5 ())

let suite =
  [ Alcotest.test_case "with_trip_at trips exactly once" `Quick test_trip_at;
    Alcotest.test_case "backoff schedule grows to the cap" `Quick
      test_backoff_schedule;
    Alcotest.test_case "backoff is seed-deterministic" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "backoff validates its shape" `Quick
      test_backoff_validation;
    Alcotest.test_case "fault mid-enumeration" `Quick
      test_trip_at_mid_enumeration;
    Alcotest.test_case "exhaustion is sticky" `Quick test_sticky;
    Alcotest.test_case "only deadline, steps and fault trip" `Quick
      test_reasons;
    Alcotest.test_case "partial results are prefixes" `Quick
      test_prefix_property;
    QCheck_alcotest.to_alcotest test_prefix_property_random;
    Alcotest.test_case "fault sweep over every tick of the pruned search"
      `Quick test_fault_sweep_pruned;
    Alcotest.test_case "fault sweep over every tick of the compiled kernel"
      `Quick test_fault_sweep_compiled;
    Alcotest.test_case "fault sweep over every tick of incremental repair"
      `Quick test_fault_sweep_repair;
    QCheck_alcotest.to_alcotest test_prefix_property_compiled;
    QCheck_alcotest.to_alcotest test_prefix_property_naive;
    QCheck_alcotest.to_alcotest test_prefix_property_total;
    Alcotest.test_case "zero budgets" `Quick test_zero_budgets;
    Alcotest.test_case "maximality filter honours the deadline" `Quick
      test_maximality_deadline;
    Alcotest.test_case "one part under a spent budget lists certified models"
      `Quick test_single_part_budget;
    Alcotest.test_case "boolean queries raise" `Quick
      test_boolean_queries_raise;
    Alcotest.test_case "overflow counts before dedup" `Quick
      test_overflow_counts_before_dedup;
    Alcotest.test_case "grounding ticks once per candidate" `Quick
      test_grounding_ticks;
    Alcotest.test_case "overflow diagnostic" `Quick test_overflow_diagnostic;
    Alcotest.test_case "fixpoint trips" `Quick test_vfix_trip;
    Alcotest.test_case "datalog enumeration trips" `Quick test_datalog_trip
  ]
