(* Enumeration benchmark: the branch-and-propagate search against the
   naive leaf-check oracle, over the stable-enumeration workloads.  Emits
   BENCH_PR2.json — the first point of the performance trajectory (see
   docs/PERFORMANCE.md for how to read it).

   For every workload and both engines it reports the median wall time of
   several runs plus the (deterministic) search counters of one run; the
   "ratios" section divides naive search nodes by pruned search nodes per
   workload, and "summary.scaled" names the large workload whose ratio
   the trajectory tracks.

   Flags: --quick (small workloads and few repeats; used by the cram
   well-formedness test), --out FILE (default BENCH_PR2.json),
   --min-ratio R (exit 1 if the scaled workload's node ratio falls
   below R — the trajectory's regression guard; the PR 2 baseline for
   even-loops-6/af is 364.8), --max-wall-ms N (exit 1 if the scaled
   workload's pruned median wall time exceeds N milliseconds — an
   absolute ceiling beside the relative ratio floor, so the guard also
   catches a regression that slows both engines equally). *)

module B = Ordered.Budget
module C = Ordered.Counters
module W = Workloads

type kind = Af | Total

type spec = {
  w_name : string;
  kind : kind;
  runs : int;
  gop : Ordered.Gop.t Lazy.t;
}

let p5_src =
  "component c2 { a. b. c. } \
   component c1 extends c2 { -a :- b, c. -b :- a. -b :- -b. }"

let p5 () =
  let p = Ordered.Program.parse_exn p5_src in
  Ordered.Gop.ground p (Ordered.Program.component_id_exn p "c1")

let spec name kind runs mk = { w_name = name; kind; runs; gop = lazy (mk ()) }

let full_specs =
  [ spec "p5/af" Af 25 p5;
    spec "even-loops-4/af" Af 15 (fun () ->
        Ordered.Bridge.ground_ov (W.even_loops 4));
    spec "win-move-9/af" Af 5 (fun () ->
        Ordered.Bridge.ground_ov (W.win_move 9));
    (* the scaled stable-enumeration workload of the trajectory *)
    spec "even-loops-6/af" Af 3 (fun () ->
        Ordered.Bridge.ground_ov (W.even_loops 6));
    spec "even-loops-4/total" Total 15 (fun () ->
        Ordered.Bridge.ground_ov (W.even_loops 4))
  ]

let quick_specs =
  [ spec "p5/af" Af 5 p5;
    spec "even-loops-3/af" Af 3 (fun () ->
        Ordered.Bridge.ground_ov (W.even_loops 3));
    spec "even-loops-3/total" Total 3 (fun () ->
        Ordered.Bridge.ground_ov (W.even_loops 3))
  ]

(* name of the workload whose node ratio the trajectory tracks *)
let scaled_of quick = if quick then "even-loops-3/af" else "even-loops-6/af"

type row = {
  r_workload : string;
  r_engine : string;  (* pruned | naive *)
  r_runs : int;
  r_median_ns : int;
  r_stats : C.t;
  r_models : int;
}

let enumerate kind engine ?stats g =
  let result =
    match kind, engine with
    | Af, `Pruned -> Ordered.Stable.assumption_free_models ?stats g
    | Af, `Naive -> Oracle.Stable.assumption_free_models ?stats g
    | Total, `Pruned -> Oracle.Pruned.total_models ?stats g
    | Total, `Naive -> Oracle.Exhaustive.total_models ?stats g
  in
  List.length (B.value result)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let measure s engine =
  let g = Lazy.force s.gop in
  let stats = C.create () in
  let models = enumerate s.kind engine ~stats g in
  let sample () =
    let t0 = Unix.gettimeofday () in
    ignore (enumerate s.kind engine g : int);
    int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  let samples = List.init s.runs (fun _ -> sample ()) in
  { r_workload = s.w_name;
    r_engine = (match engine with `Pruned -> "pruned" | `Naive -> "naive");
    r_runs = s.runs;
    r_median_ns = median samples;
    r_stats = stats;
    r_models = models
  }

let () =
  let quick = ref false in
  let out = ref "BENCH_PR2.json" in
  let min_ratio = ref None in
  let max_wall_ms = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | "--min-ratio" :: r :: rest ->
      (match float_of_string_opt r with
      | Some f -> min_ratio := Some f
      | None ->
        Printf.eprintf "enum: --min-ratio expects a number, got %s\n" r;
        exit 2);
      parse rest
    | "--max-wall-ms" :: r :: rest ->
      (match int_of_string_opt r with
      | Some n when n > 0 -> max_wall_ms := Some n
      | _ ->
        Printf.eprintf "enum: --max-wall-ms expects a positive integer, \
                        got %s\n" r;
        exit 2);
      parse rest
    | arg :: _ ->
      Printf.eprintf "enum: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let specs = if !quick then quick_specs else full_specs in
  let rows =
    List.concat_map (fun s -> [ measure s `Pruned; measure s `Naive ]) specs
  in
  let ratio s =
    let nodes engine =
      (List.find
         (fun r -> r.r_workload = s.w_name && r.r_engine = engine)
         rows)
        .r_stats
        .C.nodes
    in
    (s.w_name, nodes "naive", nodes "pruned")
  in
  let ratios = List.map ratio specs in
  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"PR2 enumeration\",\n  \"mode\": \"%s\",\n"
    (if !quick then "quick" else "full");
  p "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"workload\": \"%s\", \"engine\": \"%s\", \"runs\": %d, \
         \"median_ns\": %d, \"models\": %d, \"nodes\": %d, \"leaves\": %d, \
         \"prunes\": %d, \"forced\": %d}%s\n"
        r.r_workload r.r_engine r.r_runs r.r_median_ns r.r_models
        r.r_stats.C.nodes r.r_stats.C.leaves r.r_stats.C.prunes
        r.r_stats.C.forced
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n  \"ratios\": [\n";
  List.iteri
    (fun i (name, naive, pruned) ->
      p
        "    {\"workload\": \"%s\", \"naive_nodes\": %d, \"pruned_nodes\": \
         %d, \"node_ratio\": %.1f}%s\n"
        name naive pruned
        (float_of_int naive /. float_of_int (max 1 pruned))
        (if i = List.length ratios - 1 then "" else ","))
    ratios;
  let scaled = scaled_of !quick in
  let _, naive, pruned =
    List.find (fun (n, _, _) -> n = scaled) ratios
  in
  p
    "  ],\n\
    \  \"summary\": {\"scaled\": {\"workload\": \"%s\", \"naive_nodes\": %d, \
     \"pruned_nodes\": %d, \"node_ratio\": %.1f}}\n\
     }\n"
    scaled naive pruned
    (float_of_int naive /. float_of_int (max 1 pruned));
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  (match !min_ratio with
  | None -> ()
  | Some floor ->
    let got = float_of_int naive /. float_of_int (max 1 pruned) in
    if got < floor then begin
      Printf.eprintf
        "enum: node ratio regression on %s: %.1f < required %.1f\n" scaled
        got floor;
      exit 1
    end
    else Printf.printf "node ratio %.1f >= %.1f: ok\n" got floor);
  match !max_wall_ms with
  | None -> ()
  | Some ceiling ->
    let pruned_ms =
      (List.find
         (fun r -> r.r_workload = scaled && r.r_engine = "pruned")
         rows)
        .r_median_ns / 1_000_000
    in
    if pruned_ms > ceiling then begin
      Printf.eprintf
        "enum: wall-clock regression on %s: pruned median %d ms > allowed \
         %d ms\n"
        scaled pruned_ms ceiling;
      exit 1
    end
    else
      Printf.printf "pruned median %d ms <= %d ms: ok\n" pruned_ms ceiling
