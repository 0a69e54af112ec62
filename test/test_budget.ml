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

let test_cancel () =
  let b = B.make () in
  B.tick b;
  B.cancel b;
  match B.check b with
  | exception B.Exhausted B.Cancelled -> ()
  | () -> Alcotest.fail "cancellation must trip the next check"

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
      Alcotest.failf "unexpected fallback: %a" Inc.Reground.pp_fallback f
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
        match Ordered.Exhaustive.total_models g with
        | B.Complete ms -> ms
        | B.Partial _ -> QCheck.Test.fail_report "unlimited run partial"
      in
      match
        Ordered.Exhaustive.total_models ~budget:(B.make ~max_steps:n ()) g
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

(* ------------------------------------------------------------------ *)
(* Boolean queries are not anytime                                     *)
(* ------------------------------------------------------------------ *)

let test_boolean_queries_raise () =
  let g = af_gop () in
  let l = Lang.Parser.parse_literal "p0" in
  (match Ordered.Stable.cautious ~budget:(B.make ~max_steps:4 ()) g l with
  | exception B.Exhausted B.Steps -> ()
  | (_ : bool) -> Alcotest.fail "cautious under a tiny budget must raise");
  match Ordered.Stable.brave ~budget:(B.make ~max_steps:4 ()) g l with
  | exception B.Exhausted B.Steps -> ()
  | (_ : bool) -> Alcotest.fail "brave under a tiny budget must raise"

(* ------------------------------------------------------------------ *)
(* Instance caps and typed diagnostics                                 *)
(* ------------------------------------------------------------------ *)

let test_instance_cap () =
  let prog = W.islands 4 6 in
  let comp = Ordered.Program.component_id_exn prog "main" in
  match
    Ordered.Gop.ground ~budget:(B.make ~max_instances:3 ()) prog comp
  with
  | exception B.Exhausted B.Instances -> ()
  | (_ : Ordered.Gop.t) -> Alcotest.fail "instance cap must trip"

let test_overflow_diagnostic () =
  (* distinct from the budget: the max_instances cap raises a typed
     diagnostic naming the offending source rule *)
  let prog = W.islands 4 6 in
  let comp = Ordered.Program.component_id_exn prog "main" in
  match Ordered.Gop.ground ~max_instances:3 prog comp with
  | exception
      Ordered.Diag.Error
        (Ordered.Diag.Grounding_overflow { rule; produced; cap = 3; _ }) ->
    Alcotest.(check bool) "rule is named" true (String.length rule > 0);
    Alcotest.(check bool) "count exceeds cap" true (produced > 3)
  | _ -> Alcotest.fail "overflow must raise a typed Grounding_overflow"

let test_vfix_trip () =
  (* exhaustion inside the fixpoint engine propagates from run_incremental *)
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
  let b = K.make ~base:0.1 ~cap:1.0 ~jitter:0.5 ~seed:42 () in
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
  Alcotest.(check int) "attempts counted" (List.length expected)
    (K.attempts b);
  (* a success resets the schedule to base *)
  K.reset b;
  Alcotest.(check int) "reset clears attempts" 0 (K.attempts b);
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
  rejects "cap below base" (fun () -> K.make ~base:1. ~cap:0.5 ());
  rejects "multiplier below 1" (fun () ->
      K.make ~multiplier:0.9 ~base:0.1 ~cap:1. ());
  rejects "jitter above 1" (fun () ->
      K.make ~jitter:1.5 ~base:0.1 ~cap:1. ())

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
    Alcotest.test_case "cooperative cancellation" `Quick test_cancel;
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
    Alcotest.test_case "boolean queries raise" `Quick
      test_boolean_queries_raise;
    Alcotest.test_case "instance cap" `Quick test_instance_cap;
    Alcotest.test_case "overflow diagnostic" `Quick test_overflow_diagnostic;
    Alcotest.test_case "fixpoint trips" `Quick test_vfix_trip;
    Alcotest.test_case "datalog enumeration trips" `Quick test_datalog_trip
  ]
