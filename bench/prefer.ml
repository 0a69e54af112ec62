(* Preference benchmark: compiled preferences (Delgrande–Schaub-style
   translation + the pruned search) against the naive preferred-model
   oracle, on scaled prioritized-defaults workloads.  Emits
   BENCH_PR8.json — the PR 8 point of the performance trajectory (see
   docs/PERFORMANCE.md).

   The workload is k independent blocks over a low/high component
   pair.  Every block combines the paper's Example 5 conflict (two
   stable models, so the search must branch) with a default/exception
   pair decided by a prefer declaration:

     low:   aI. bI. cI.
     high:  rIa : -aI :- bI, cI.   rIb : -bI :- aI.   rIs : -bI :- -bI.
            dI : pI :- cI.         eI : -pI :- cI.
     prefer eI > dI, rIa > rIb.

   Undeclared, dI and eI defeat each other and pI stays undefined; the
   preference overrules the default, forcing -pI into every preferred
   model.  The Example 5 half doubles the model count per block, so
   both engines agree on exactly 2^k preferred models.  The compiled
   route reaches them with the pruned branch-and-propagate search; the
   oracle leaf-checks the refined grounding — the node ratio (naive
   nodes / compiled nodes) is the compilation's win and grows with k.

   For every workload and both engines the JSON reports the median wall
   time of several runs plus the deterministic search counters of one
   run; "summary.scaled" names the workload the trajectory tracks.

   Flags: --quick (small workloads, few repeats; the cram
   well-formedness test), --out FILE (default BENCH_PR8.json),
   --min-ratio R (exit 1 if the scaled workload's node ratio falls
   below R — the regression guard; the Makefile floor lives in
   bench-prefer), --search pruned|compiled (the stable search run on
   the compiled preference program; "compiled" is the flat-array
   kernel — same models and order, fewer nodes on conflict-heavy
   programs). *)

module B = Ordered.Budget
module C = Ordered.Counters

let prioritized_defaults k =
  let b = Buffer.create 1024 in
  Buffer.add_string b "component low {\n";
  for i = 1 to k do
    Buffer.add_string b (Printf.sprintf "  a%d. b%d. c%d.\n" i i i)
  done;
  Buffer.add_string b "}\ncomponent high extends low {\n";
  for i = 1 to k do
    Buffer.add_string b
      (Printf.sprintf
         "  r%da : -a%d :- b%d, c%d.  r%db : -b%d :- a%d.  r%ds : -b%d :- \
          -b%d.\n"
         i i i i i i i i i i);
    Buffer.add_string b
      (Printf.sprintf "  d%d : p%d :- c%d.  e%d : -p%d :- c%d.\n" i i i i i i)
  done;
  Buffer.add_string b "}\n";
  for i = 1 to k do
    Buffer.add_string b
      (Printf.sprintf "prefer e%d > d%d, r%da > r%db.\n" i i i i)
  done;
  Buffer.contents b

let spec_of src =
  let ast = Lang.Parser.parse_file src in
  let prog =
    match Ordered.Program.of_ast ast with
    | Ok p -> p
    | Error e -> failwith e
  in
  let viewpoint =
    match Ordered.Poset.minimal (Ordered.Program.poset prog) with
    | [ c ] -> c
    | _ -> failwith "ambiguous viewpoint"
  in
  Prefer.Spec.make prog viewpoint (Lang.Ast.prefer_pairs ast)

type spec = { w_name : string; runs : int; spec : Prefer.Spec.t Lazy.t }

let spec name runs k =
  { w_name = name; runs; spec = lazy (spec_of (prioritized_defaults k)) }

let full_specs =
  [ spec "prioritized-defaults-4" 15 4;
    spec "prioritized-defaults-5" 5 5;
    (* the scaled preference workload of the trajectory *)
    spec "prioritized-defaults-6" 3 6
  ]

let quick_specs =
  [ spec "prioritized-defaults-2" 5 2; spec "prioritized-defaults-3" 3 3 ]

let scaled_of quick =
  if quick then "prioritized-defaults-3" else "prioritized-defaults-6"

type row = {
  r_workload : string;
  r_engine : string;  (* compiled | naive *)
  r_runs : int;
  r_median_ns : int;
  r_stats : C.t;
  r_models : int;
}

let enumerate ~search engine ?stats spec =
  let result =
    match engine with
    | `Compiled -> (
      let g = Prefer.Compile.gop (Prefer.Compile.compile spec) in
      match search with
      | `Pruned -> Ordered.Stable.stable_models ?stats g
      | `Compiled -> Solve.Kernel.stable_models ?stats g)
    | `Naive -> Oracle.Prefer.preferred_models ?stats spec
  in
  List.length (B.value result)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let measure ~search s engine =
  let spec = Lazy.force s.spec in
  let stats = C.create () in
  let models = enumerate ~search engine ~stats spec in
  let sample () =
    let t0 = Unix.gettimeofday () in
    ignore (enumerate ~search engine spec : int);
    int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  let samples = List.init s.runs (fun _ -> sample ()) in
  { r_workload = s.w_name;
    r_engine = (match engine with `Compiled -> "compiled" | `Naive -> "naive");
    r_runs = s.runs;
    r_median_ns = median samples;
    r_stats = stats;
    r_models = models
  }

let () =
  let quick = ref false in
  let out = ref "BENCH_PR8.json" in
  let min_ratio = ref None in
  let search = ref `Pruned in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | "--search" :: s :: rest ->
      (match s with
      | "pruned" -> search := `Pruned
      | "compiled" -> search := `Compiled
      | _ ->
        Printf.eprintf "prefer: --search expects pruned or compiled, got %s\n"
          s;
        exit 2);
      parse rest
    | "--min-ratio" :: r :: rest ->
      (match float_of_string_opt r with
      | Some f -> min_ratio := Some f
      | None ->
        Printf.eprintf "prefer: --min-ratio expects a number, got %s\n" r;
        exit 2);
      parse rest
    | arg :: _ ->
      Printf.eprintf "prefer: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let specs = if !quick then quick_specs else full_specs in
  let search = !search in
  let rows =
    List.concat_map
      (fun s -> [ measure ~search s `Compiled; measure ~search s `Naive ])
      specs
  in
  (* the two engines are differential implementations of the same
     semantics: a model-count mismatch is a bug, not a data point *)
  List.iter
    (fun s ->
      let models engine =
        (List.find
           (fun r -> r.r_workload = s.w_name && r.r_engine = engine)
           rows)
          .r_models
      in
      if models "compiled" <> models "naive" then begin
        Printf.eprintf "prefer: engine disagreement on %s: compiled %d vs \
                        naive %d model(s)\n"
          s.w_name (models "compiled") (models "naive");
        exit 1
      end)
    specs;
  let ratio s =
    let find engine =
      List.find
        (fun r -> r.r_workload = s.w_name && r.r_engine = engine)
        rows
    in
    ( s.w_name,
      (find "naive").r_stats.C.nodes,
      (find "compiled").r_stats.C.nodes,
      (find "naive").r_median_ns,
      (find "compiled").r_median_ns )
  in
  let ratios = List.map ratio specs in
  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"PR8 preferences\",\n  \"mode\": \"%s\",\n"
    (if !quick then "quick" else "full");
  p "  \"search\": \"%s\",\n"
    (match search with `Pruned -> "pruned" | `Compiled -> "compiled");
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
    (fun i (name, naive, compiled, naive_ns, compiled_ns) ->
      p
        "    {\"workload\": \"%s\", \"naive_nodes\": %d, \"compiled_nodes\": \
         %d, \"node_ratio\": %.1f, \"time_ratio\": %.1f}%s\n"
        name naive compiled
        (float_of_int naive /. float_of_int (max 1 compiled))
        (float_of_int naive_ns /. float_of_int (max 1 compiled_ns))
        (if i = List.length ratios - 1 then "" else ","))
    ratios;
  let scaled = scaled_of !quick in
  let _, naive, compiled, _, _ =
    List.find (fun (n, _, _, _, _) -> n = scaled) ratios
  in
  p
    "  ],\n\
    \  \"summary\": {\"scaled\": {\"workload\": \"%s\", \"naive_nodes\": %d, \
     \"compiled_nodes\": %d, \"node_ratio\": %.1f}}\n\
     }\n"
    scaled naive compiled
    (float_of_int naive /. float_of_int (max 1 compiled));
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  match !min_ratio with
  | None -> ()
  | Some floor ->
    let got = float_of_int naive /. float_of_int (max 1 compiled) in
    if got < floor then begin
      Printf.eprintf
        "prefer: node ratio regression on %s: %.1f < required %.1f\n" scaled
        got floor;
      exit 1
    end
    else Printf.printf "node ratio %.1f >= %.1f: ok\n" got floor
