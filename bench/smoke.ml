(* Budget smoke-runner: every workload runs under one wall-clock budget
   (default 2 s, override with SMOKE_BUDGET) and must either complete or
   surrender in time.  Emits a single JSON document with per-workload
   status, expected outcome, budget steps and ground-rule count, plus a
   summary with the
   budget-exhaustion count.  Each workload is either meant to complete
   or built to outrun the budget.  Exit code 1 if any workload overshot
   its deadline (the graceful-degradation guarantee failed) or a
   workload built to outrun the budget completed (it no longer tests a
   surrender), 0 otherwise.  A workload meant to complete that exhausts
   the budget is not a failure: a small SMOKE_BUDGET makes that the
   expected outcome. *)

module B = Ordered.Budget
module W = Workloads

let budget_secs =
  match Sys.getenv_opt "SMOKE_BUDGET" with
  | Some s -> ( match float_of_string_opt s with Some f when f > 0. -> f | _ -> 2.0)
  | None -> 2.0

(* overshoot tolerance: the clock is polled every 64 ticks and partial
   results still get post-processed, so allow a grace window *)
let grace_ms = 800.

type expect = Completes | Exhausts

type row = {
  name : string;
  expect : expect;
  status : string;  (* complete | partial | exhausted | error *)
  reason : string option;
  elapsed_ms : float;
  steps : int;
  ground_rules : int;  (* size of the last grounding the workload built *)
  detail : string;
}

(* Ground-rule count of the running workload's last grounding; [run]
   resets it, so a workload that trips before grounding reports 0. *)
let last_rules = ref 0

let grounded g =
  last_rules := Ordered.Gop.n_rules g;
  g

let ground ~budget prog comp =
  grounded
    (Ordered.Gop.ground ~budget prog
       (Ordered.Program.component_id_exn prog comp))

let loaded e =
  last_rules := List.length (Datalog.Engine.ground_rules e);
  e

let exhausted r = r.status = "partial" || r.status = "exhausted"

let run (name, expect, f) =
  let budget = B.make ~timeout:budget_secs () in
  last_rules := 0;
  let t0 = Unix.gettimeofday () in
  let status, reason, detail =
    match f budget with
    | `Complete d -> ("complete", None, d)
    | `Partial (d, why) -> ("partial", Some (B.reason_to_string why), d)
    | exception B.Exhausted why ->
      ("exhausted", Some (B.reason_to_string why), "surrendered")
    | exception Ordered.Diag.Error e ->
      ("error", Some (Ordered.Diag.to_string e), "diagnostic")
    | exception Failure gate -> ("error", Some gate, "counter gate")
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  { name;
    expect;
    status;
    reason;
    elapsed_ms;
    steps = B.steps budget;
    ground_rules = !last_rules;
    detail
  }

let models_detail = function
  | B.Complete ms -> `Complete (Printf.sprintf "%d models" (List.length ms))
  | B.Partial (ms, r) ->
    `Partial (Printf.sprintf "%d models (prefix)" (List.length ms), r)

let workloads =
  [ ( "chain-400/least",
      Completes,
      fun b ->
        let g = ground ~budget:b (W.chain 400) "main" in
        let m = Ordered.Vfix.least_model ~budget:b g in
        `Complete (Printf.sprintf "%d literals" (Logic.Interp.cardinal m)) );
    ( "tower-64/least",
      Completes,
      fun b ->
        let g = ground ~budget:b (W.tower 64) "c63" in
        let m = Ordered.Vfix.least_model ~budget:b g in
        `Complete (Printf.sprintf "%d literals" (Logic.Interp.cardinal m)) );
    ( "ancestor-32/well-founded",
      Completes,
      fun b ->
        let e = loaded (Datalog.Engine.load ~budget:b (W.ancestor_rules 32)) in
        let m = Datalog.Engine.well_founded ~budget:b e in
        `Complete (Printf.sprintf "%d literals" (Logic.Interp.cardinal m)) );
    ( "even-loops-6/stable",
      Completes,
      fun b ->
        models_detail
          (Solve.Kernel.stable_models ~budget:b
             (grounded (Ordered.Bridge.ground_ov (W.even_loops 6)))) );
    ( "cwa-loops-12/stable",
      (* one two-model part per loop: the 4096 stable models are listed
         as a product, each part certified once; the count is gated *)
      Completes,
      fun b ->
        let g = ground ~budget:b (W.cwa_loops 12) "main" in
        let stats = Ordered.Counters.create () in
        match Solve.Kernel.stable_models ~budget:b ~stats g with
        | B.Complete ms when List.length ms <> 4096 ->
          failwith (Printf.sprintf "%d stable models, want 4096" (List.length ms))
        | B.Complete _ when stats.Ordered.Counters.models <> 4096 ->
          failwith "models counter is not 4096"
        | r -> models_detail r );
    ( "even-loops-14/assumption-free",
      (* deliberately too large for the budget: must surrender a partial
         prefix at the deadline, not run away *)
      Exhausts,
      fun b ->
        models_detail
          (Solve.Kernel.assumption_free_models ~budget:b
             (grounded (Ordered.Bridge.ground_ov (W.even_loops 14)))) );
    ( "win-move-1200/well-founded",
      (* the alternating fixpoint at scale: quadratic in the chain, about
         half the default budget *)
      Completes,
      fun b ->
        let e = loaded (Datalog.Engine.load ~budget:b (W.win_move 1200)) in
        let m = Datalog.Engine.well_founded ~budget:b e in
        `Complete (Printf.sprintf "%d literals" (Logic.Interp.cardinal m)) );
    ( "win-move-200000/ground",
      (* large grounding: loading alone takes about three times the
         default budget, so the deadline trips inside the grounder *)
      Exhausts,
      fun b ->
        let e = loaded (Datalog.Engine.load ~budget:b (W.win_move 200_000)) in
        `Complete
          (Printf.sprintf "%d ground rules"
             (List.length (Datalog.Engine.ground_rules e))) );
    ( "kb-chain-48/least",
      Completes,
      fun b ->
        let g = ground ~budget:b (W.kb_chain 48) "v47" in
        let m = Ordered.Vfix.least_model ~budget:b g in
        `Complete (Printf.sprintf "%d literals" (Logic.Interp.cardinal m)) )
  ]

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let () =
  let rows = List.map run workloads in
  let held r = r.elapsed_ms <= (budget_secs *. 1000.) +. grace_ms in
  let count p = List.length (List.filter p rows) in
  let complete = count (fun r -> r.status = "complete") in
  let budget_exhausted = count exhausted in
  let as_expected r = r.expect = Completes || exhausted r in
  let errors = count (fun r -> r.status = "error") in
  let deadline_held = List.for_all held rows in
  let expectations_held = List.for_all as_expected rows in
  Printf.printf "{\n  \"budget_secs\": %g,\n  \"workloads\": [\n" budget_secs;
  List.iteri
    (fun i r ->
      Printf.printf
        "    {\"name\": \"%s\", \"expected\": \"%s\", \"status\": \"%s\", \
         \"reason\": %s, \"elapsed_ms\": %.1f, \"steps\": %d, \
         \"ground_rules\": %d, \"detail\": \"%s\", \"deadline_held\": %b}%s\n"
        (json_escape r.name)
        (match r.expect with Completes -> "complete" | Exhausts -> "exhausted")
        r.status
        (match r.reason with
        | None -> "null"
        | Some s -> Printf.sprintf "\"%s\"" (json_escape s))
        r.elapsed_ms r.steps r.ground_rules (json_escape r.detail) (held r)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.printf
    "  ],\n\
    \  \"summary\": {\"total\": %d, \"complete\": %d, \"budget_exhausted\": \
     %d, \"errors\": %d, \"deadline_held\": %b, \"expectations_held\": \
     %b}\n\
     }\n"
    (List.length rows) complete budget_exhausted errors deadline_held
    expectations_held;
  if not deadline_held then begin
    prerr_endline "bench-smoke: a workload overshot its deadline";
    exit 1
  end;
  List.iter
    (fun r ->
      if not (as_expected r) then
        Printf.eprintf
          "bench-smoke: %s was built to outrun the budget but completed\n"
          r.name)
    rows;
  if not expectations_held then exit 1;
  if errors > 0 then begin
    prerr_endline "bench-smoke: a workload raised a diagnostic or failed its gate";
    exit 1
  end
