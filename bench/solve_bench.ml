(* Compiled-kernel benchmark: the flat-array kernel (watched-literal
   propagation + conflict-driven nogood learning) against the pruned
   branch-and-propagate search it replaces on the hot path.  Emits
   BENCH_PR9.json (see docs/PERFORMANCE.md for how to read it).

   Both engines enumerate the same model lists in the same order, so the
   interesting numbers are wall time and visited nodes.  For every
   workload and both engines it reports the median wall time of several
   runs plus the (deterministic) search counters of one run; the
   "ratios" section divides pruned by compiled per workload — wall ratio
   (> 1 means the kernel is faster) and node ratio (>= 1 always: the
   kernel visits no more nodes, and strictly fewer where learned nogoods
   cut conflict-heavy subtrees).  "summary.scaled" names the large
   workload whose wall ratio the trajectory tracks.

   Flags: --quick (small workloads and few repeats; used by the cram
   well-formedness test), --out FILE (default BENCH_PR9.json),
   --min-wall-ratio R (exit 1 if the scaled workload's pruned/compiled
   median wall ratio falls below R — the trajectory's regression
   guard), --max-wall-ms N (exit 1 if the scaled workload's compiled
   median wall time exceeds N milliseconds — an absolute ceiling beside
   the relative floor). *)

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
    (* the scaled workload of the trajectory: conflict-heavy (every
       even/odd loop admits two total labelings whose interaction
       conflicts), so nogoods get to cut subtrees *)
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

(* name of the workload whose wall ratio the trajectory tracks *)
let scaled_of quick = if quick then "even-loops-3/af" else "even-loops-6/af"

type row = {
  r_workload : string;
  r_engine : string;  (* pruned | compiled *)
  r_runs : int;
  r_median_ns : int;
  r_stats : C.t;
  r_models : int;
}

let enumerate kind engine ?stats g =
  let result =
    match kind, engine with
    | Af, `Pruned -> Ordered.Stable.assumption_free_models ?stats g
    | Af, `Compiled -> Solve.Kernel.assumption_free_models ?stats g
    | Total, `Pruned -> Oracle.Pruned.total_models ?stats g
    | Total, `Compiled -> Solve.Kernel.total_models ?stats g
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
    r_engine = (match engine with `Pruned -> "pruned" | `Compiled -> "compiled");
    r_runs = s.runs;
    r_median_ns = median samples;
    r_stats = stats;
    r_models = models
  }

let () =
  let quick = ref false in
  let out = ref "BENCH_PR9.json" in
  let min_wall_ratio = ref None in
  let max_wall_ms = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | "--min-wall-ratio" :: r :: rest ->
      (match float_of_string_opt r with
      | Some f -> min_wall_ratio := Some f
      | None ->
        Printf.eprintf "solve-bench: --min-wall-ratio expects a number, got %s\n" r;
        exit 2);
      parse rest
    | "--max-wall-ms" :: r :: rest ->
      (match int_of_string_opt r with
      | Some n when n > 0 -> max_wall_ms := Some n
      | _ ->
        Printf.eprintf "solve-bench: --max-wall-ms expects a positive integer, \
                        got %s\n" r;
        exit 2);
      parse rest
    | arg :: _ ->
      Printf.eprintf "solve-bench: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let specs = if !quick then quick_specs else full_specs in
  let rows =
    List.concat_map (fun s -> [ measure s `Pruned; measure s `Compiled ]) specs
  in
  let find w e =
    List.find (fun r -> r.r_workload = w && r.r_engine = e) rows
  in
  (* the kernel's contract: same model lists, never more nodes *)
  List.iter
    (fun s ->
      let p = find s.w_name "pruned" and c = find s.w_name "compiled" in
      if c.r_models <> p.r_models then begin
        Printf.eprintf "solve-bench: %s: compiled found %d models, pruned %d\n"
          s.w_name c.r_models p.r_models;
        exit 1
      end;
      if c.r_stats.C.nodes > p.r_stats.C.nodes then begin
        Printf.eprintf "solve-bench: %s: compiled visited %d nodes > pruned %d\n"
          s.w_name c.r_stats.C.nodes p.r_stats.C.nodes;
        exit 1
      end)
    specs;
  let ratio s =
    let p = find s.w_name "pruned" and c = find s.w_name "compiled" in
    ( s.w_name,
      p.r_median_ns,
      c.r_median_ns,
      p.r_stats.C.nodes,
      c.r_stats.C.nodes )
  in
  let ratios = List.map ratio specs in
  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"PR9 compiled kernel\",\n  \"mode\": \"%s\",\n"
    (if !quick then "quick" else "full");
  p "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"workload\": \"%s\", \"engine\": \"%s\", \"runs\": %d, \
         \"median_ns\": %d, \"models\": %d, \"nodes\": %d, \"leaves\": %d, \
         \"prunes\": %d, \"forced\": %d, \"propagations\": %d, \
         \"conflicts\": %d, \"learned\": %d, \"evicted\": %d, \
         \"restarts\": %d}%s\n"
        r.r_workload r.r_engine r.r_runs r.r_median_ns r.r_models
        r.r_stats.C.nodes r.r_stats.C.leaves r.r_stats.C.prunes
        r.r_stats.C.forced r.r_stats.C.propagations r.r_stats.C.conflicts
        r.r_stats.C.learned r.r_stats.C.evicted r.r_stats.C.restarts
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n  \"ratios\": [\n";
  List.iteri
    (fun i (name, pns, cns, pn, cn) ->
      p
        "    {\"workload\": \"%s\", \"pruned_median_ns\": %d, \
         \"compiled_median_ns\": %d, \"wall_ratio\": %.2f, \
         \"pruned_nodes\": %d, \"compiled_nodes\": %d, \
         \"node_ratio\": %.2f}%s\n"
        name pns cns
        (float_of_int pns /. float_of_int (max 1 cns))
        pn cn
        (float_of_int pn /. float_of_int (max 1 cn))
        (if i = List.length ratios - 1 then "" else ","))
    ratios;
  let scaled = scaled_of !quick in
  let _, pns, cns, pn, cn =
    List.find (fun (n, _, _, _, _) -> n = scaled) ratios
  in
  let wall_ratio = float_of_int pns /. float_of_int (max 1 cns) in
  p
    "  ],\n\
    \  \"summary\": {\"scaled\": {\"workload\": \"%s\", \
     \"pruned_median_ns\": %d, \"compiled_median_ns\": %d, \
     \"wall_ratio\": %.2f, \"pruned_nodes\": %d, \"compiled_nodes\": %d}}\n\
     }\n"
    scaled pns cns wall_ratio pn cn;
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  (match !min_wall_ratio with
  | None -> ()
  | Some floor ->
    if wall_ratio < floor then begin
      Printf.eprintf
        "solve-bench: wall-ratio regression on %s: %.2f < required %.2f\n" scaled
        wall_ratio floor;
      exit 1
    end
    else Printf.printf "wall ratio %.2f >= %.2f: ok\n" wall_ratio floor);
  match !max_wall_ms with
  | None -> ()
  | Some ceiling ->
    let compiled_ms = cns / 1_000_000 in
    if compiled_ms > ceiling then begin
      Printf.eprintf
        "solve-bench: wall-clock regression on %s: compiled median %d ms > \
         allowed %d ms\n"
        scaled compiled_ms ceiling;
      exit 1
    end
    else
      Printf.printf "compiled median %d ms <= %d ms: ok\n" compiled_ms ceiling
