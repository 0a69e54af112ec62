(* Benchmark harness.

   Part 1 regenerates, qualitatively, every figure of the paper (the paper
   reports no timings, so the "rows" of each figure are the inferences it
   claims; EXPERIMENTS.md records paper-vs-measured for each).

   Part 2 times the algorithms on scaled synthetic workloads (experiments
   B1-B7 and B10 in DESIGN.md): the two V-fixpoint engines, OV vs EV,
   the reference grounder vs the classical oracle's relevance-driven
   one, classical vs ordered stable
   enumeration, well-founded vs ordered fixpoints, knowledge-base
   inheritance depth, goal-directed proof vs materialisation, and delta
   repair vs rebuild at the ordered layer. *)

open Bechamel
open Toolkit
module W = Workloads

let lit = Lang.Parser.parse_literal

(* ------------------------------------------------------------------ *)
(* Part 1: qualitative regeneration of the paper's figures             *)
(* ------------------------------------------------------------------ *)

let show_value prog comp q =
  let g = W.ground_at prog comp in
  let m = Ordered.Vfix.least_model g in
  Format.printf "  %-28s %a@." q Logic.Interp.pp_value
    (Logic.Interp.value_lit m (lit q))

let regenerate_figures () =
  Format.printf "== Figure 1 (P1, overruling): view from c1 ==@.";
  let p1 = Ordered.Program.parse_exn W.fig1_src in
  List.iter
    (show_value p1 "c1")
    [ "fly(pigeon)"; "fly(penguin)"; "ground_animal(penguin)";
      "ground_animal(pigeon)"
    ];
  Format.printf "== Figure 2 (P2, defeating): view from c1 ==@.";
  let p2 = Ordered.Program.parse_exn W.fig2_src in
  List.iter
    (show_value p2 "c1")
    [ "rich(mimmo)"; "poor(mimmo)"; "free_ticket(mimmo)" ];
  Format.printf "== Figure 3 (loan program): take_loan per scenario ==@.";
  List.iter
    (fun (label, facts) ->
      let p = Ordered.Program.parse_exn (W.fig3_src facts) in
      Format.printf " scenario %s:@." label;
      show_value p "c1" "take_loan")
    [ ("1: inflation(12)", "inflation(12).");
      ("2: inflation(12), loan_rate(16)", "inflation(12). loan_rate(16).");
      ("3: inflation(19), loan_rate(16)", "inflation(19). loan_rate(16).")
    ];
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Part 2: timed experiments                                           *)
(* ------------------------------------------------------------------ *)

let incremental g = Ordered.Vfix.lfp g
let naive g = Ordered.Vfix.lfp_naive g

let vfix_engine ?viewpoint ~lfp prog =
  let comp =
    match viewpoint with
    | Some name -> name
    | None -> Ordered.Program.component_name prog 0
  in
  let g = W.ground_at prog comp in
  Staged.stage (fun () -> ignore (lfp g))

(* B1: incremental vs naive V over suppression chains. *)
let bench_vfix =
  let sizes = [ 50; 200; 800 ] in
  Test.make_grouped ~name:"vfix"
    [ Test.make_indexed ~name:"incremental" ~args:sizes (fun n ->
          vfix_engine ~lfp:incremental (W.chain n));
      Test.make_indexed ~name:"naive" ~args:sizes (fun n ->
          vfix_engine ~lfp:naive (W.chain n))
    ]

(* B1b: overruling towers (inheritance depth of the core engine). *)
let bench_tower =
  Test.make_indexed ~name:"vfix/tower" ~args:[ 8; 32; 128 ] (fun d ->
      (* view from the most specific component, which sees all d layers *)
      vfix_engine ~viewpoint:(Printf.sprintf "c%d" (d - 1)) ~lfp:incremental
        (W.tower d))

(* B2: OV vs EV end-to-end (reference grounding + solve) on ancestor
   chains. *)
let bench_ov_ev =
  let sizes = [ 8; 16; 32 ] in
  let solve build n =
    Staged.stage (fun () ->
        let g = build (W.ancestor_rules n) in
        ignore (Ordered.Vfix.least_model g))
  in
  Test.make_grouped ~name:"ov_ev"
    [ Test.make_indexed ~name:"ov" ~args:sizes
        (solve (fun rs -> Ordered.Bridge.ground_ov rs));
      Test.make_indexed ~name:"ev" ~args:sizes
        (solve (fun rs -> Ordered.Bridge.ground_ev rs))
    ]

(* B4: the reference grounder vs the classical oracle's relevance-driven
   grounder (classical semantics only: it does not preserve ordered
   ones) on ancestor chains. *)
let bench_grounding =
  let sizes = [ 8; 16; 32 ] in
  Test.make_grouped ~name:"ground"
    [ Test.make_indexed ~name:"naive" ~args:sizes (fun n ->
          let rs = W.ancestor_rules n in
          Staged.stage (fun () -> ignore (Ground.Grounder.naive rs)));
      Test.make_indexed ~name:"relevant" ~args:sizes (fun n ->
          let rs = W.ancestor_rules n in
          Staged.stage (fun () -> ignore (Datalog.Grounder.relevant rs)))
    ]

(* B3: stable-model enumeration — classical GL solver vs the compiled
   kernel's ordered enumeration over OV(C) — on k independent even loops
   (2^k models). *)
let bench_stable =
  let sizes = [ 1; 2 ] in
  Test.make_grouped ~name:"stable"
    [ Test.make_indexed ~name:"datalog_gl" ~args:(sizes @ [ 6 ]) (fun k ->
          let np = Datalog.Nprog.of_rules (W.even_loops k) in
          Staged.stage (fun () -> ignore (Datalog.Stable.enumerate np)));
      Test.make_indexed ~name:"ordered_ov" ~args:sizes (fun k ->
          let g = Ordered.Bridge.ground_ov (W.even_loops k) in
          Staged.stage (fun () -> ignore (Solve.Kernel.stable_models g)))
    ]

(* B6: well-founded alternating fixpoint (over the classical oracle's
   NAF grounding) vs ordered V (over the reference grounding of OV) on
   win/move. *)
let bench_wfs =
  let sizes = [ 32; 128; 512 ] in
  Test.make_grouped ~name:"wfs"
    [ Test.make_indexed ~name:"alternating" ~args:sizes (fun n ->
          let np =
            Datalog.Nprog.of_rules
              (Datalog.Grounder.relevant ~naf:true (W.win_move n))
                .Ground.Grounder.rules
          in
          Staged.stage (fun () -> ignore (Datalog.Wellfounded.compute np)));
      Test.make_indexed ~name:"ordered_v" ~args:sizes (fun n ->
          let g = Ordered.Bridge.ground_ov (W.win_move n) in
          Staged.stage (fun () -> ignore (Ordered.Vfix.lfp g)))
    ]

(* B7: goal-directed proof vs full materialisation on k disconnected
   islands — the relevance closure touches one island only. *)
let bench_prove =
  let args = [ 4; 16; 64 ] in
  let goal = lit "i0_a9" in
  Test.make_grouped ~name:"prove"
    [ Test.make_indexed ~name:"goal_directed" ~args (fun k ->
          let g = W.ground_at (W.islands k 10) "main" in
          Staged.stage (fun () -> ignore (Ordered.Prove.holds g goal)));
      Test.make_indexed ~name:"materialise" ~args (fun k ->
          let g = W.ground_at (W.islands k 10) "main" in
          Staged.stage (fun () ->
              ignore
                (Logic.Interp.holds (Ordered.Vfix.least_model g) goal)))
    ]

(* B10: delta repair vs rebuild at the ordered layer (lib/inc) — add one
   universe-preserving rule to an n-fact component and either repair the
   cached grounding + least model from the delta or reground and re-solve
   from scratch. *)
let bench_inc_repair =
  let args = [ 16; 64; 256; 1024 ] in
  (* The succ rule keeps O(n) ground instances out of the O(n^2)
     substitutions the builtin guards reject, so instantiation dominates
     the surviving program: rebuilding re-enumerates the square, repair
     re-interns only the survivors plus the one added rule. *)
  let program n =
    let b = Buffer.create (16 * n) in
    Buffer.add_string
      b "component c0 { succ(X, Y) :- v(X), v(Y), Y > X, X > Y - 2. ";
    for i = 0 to n - 1 do
      Buffer.add_string b (Printf.sprintf "v(%d). " i)
    done;
    Buffer.add_string b "}";
    Ordered.Program.parse_exn (Buffer.contents b)
  in
  let mutated p c =
    Ordered.Program.add_rules p c [ Lang.Parser.parse_rule "flag :- succ(0, 1)." ]
  in
  Test.make_grouped ~name:"inc"
    [ Test.make_indexed ~name:"repair_add" ~args (fun n ->
          let p = program n in
          let c = Ordered.Program.component_id_exn p "c0" in
          let state = Inc.Reground.ground p c in
          let previous = Ordered.Vfix.least_model state.Inc.Reground.gop in
          let p2 = mutated p c in
          Staged.stage (fun () ->
              match Inc.Reground.reground state ~program:p2 with
              | Ok (st, d) ->
                ignore
                  (Inc.Repair.least_model ~previous st.Inc.Reground.gop d)
              | Error _ -> failwith "repair_add fell back"));
      Test.make_indexed ~name:"rebuild_add" ~args (fun n ->
          let p = program n in
          let c = Ordered.Program.component_id_exn p "c0" in
          let p2 = mutated p c in
          Staged.stage (fun () ->
              ignore (Ordered.Vfix.least_model (Ordered.Gop.ground p2 c))))
    ]

(* B5: knowledge-base query vs inheritance depth (ground + solve). *)
let bench_kb =
  Test.make_indexed ~name:"kb/depth" ~args:[ 4; 16; 64 ] (fun d ->
      let prog = W.kb_chain d in
      let comp = Printf.sprintf "v%d" (d - 1) in
      Staged.stage (fun () ->
          let g = W.ground_at prog comp in
          ignore (Ordered.Vfix.least_model g)))

(* Paper figures, end-to-end (parse + ground + solve). *)
let bench_figures =
  let pipeline src comp =
    Staged.stage (fun () ->
        let p = Ordered.Program.parse_exn src in
        ignore (Ordered.Vfix.least_model (W.ground_at p comp)))
  in
  Test.make_grouped ~name:"figures"
    [ Test.make ~name:"fig1_penguin" (pipeline W.fig1_src "c1");
      Test.make ~name:"fig2_defeat" (pipeline W.fig2_src "c1");
      Test.make ~name:"fig3_loan_s1" (pipeline (W.fig3_src "inflation(12).") "c1");
      Test.make ~name:"fig3_loan_s2"
        (pipeline (W.fig3_src "inflation(12). loan_rate(16).") "c1");
      Test.make ~name:"fig3_loan_s3"
        (pipeline (W.fig3_src "inflation(19). loan_rate(16).") "c1")
    ]

let groups =
  [ ("figures", bench_figures); ("vfix", bench_vfix); ("tower", bench_tower);
    ("ov_ev", bench_ov_ev); ("ground", bench_grounding);
    ("stable", bench_stable); ("wfs", bench_wfs); ("kb", bench_kb);
    ("prove", bench_prove); ("inc", bench_inc_repair)
  ]

(* Optional argv filters: `bench/main.exe vfix prove` runs only those
   groups. *)
let selected_tests () =
  let wanted = List.tl (Array.to_list Sys.argv) in
  let chosen =
    if wanted = [] then List.map snd groups
    else
      List.filter_map
        (fun (name, t) -> if List.mem name wanted then Some t else None)
        groups
  in
  if chosen = [] then begin
    Printf.eprintf "no benchmark group matches; available: %s\n"
      (String.concat ", " (List.map fst groups));
    exit 2
  end;
  Test.make_grouped ~name:"olp" chosen

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (selected_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "== Timings (monotonic clock, OLS estimate per run) ==@.";
  Format.printf "  %-40s %14s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Format.printf "  %-40s %14s@." name pretty)
    rows

let () =
  regenerate_figures ();
  run_benchmarks ()
