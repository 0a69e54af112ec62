(* Differential testing of the three enumeration engines — compiled
   ([Solve.Kernel]), pruned branch-and-propagate, and the leaf-check
   oracles ([Oracle.Stable], [Oracle.Exhaustive]) — on random programs:

   - same assumption-free / stable / total model sets across all three;
   - the compiled kernel reproduces the pruned enumeration {e order}
     exactly (list equality, not just set equality) and never visits
     more search nodes;
   - same counts under [?limit] (assumption-free and total enumerate in
     different orders but both return min(limit, total) models);
   - each engine's [?limit:k] result is exactly the first k of its own
     unlimited enumeration (the documented search-order contract);
   - [stable_models ?limit] is the maximal subset of the same engine's
     limited assumption-free enumeration;
   - the pruned search only emits assumption-free models and starts with
     the least model;
   - on compiled preference programs ([Prefer.Compile]), the compiled
     kernel agrees with the pruned preferred-model route.

   The generators cover random ordered programs (up to 3 components,
   negative heads, overruling/defeating) and OV-transformed seminegative
   programs (every atom branchable with both polarities — the
   stable-branching regime the pruning is for).  Iteration counts scale
   with FUZZ_ITERS, like the other fuzz suites. *)

open Logic
open Helpers
module Gen = QCheck2.Gen
module B = Ordered.Budget
module S = Ordered.Stable
module E = Ordered.Exhaustive
module K = Solve.Kernel
module O = Oracle

let iters name base =
  ignore name;
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > base -> n
    | _ -> base)
  | None -> base

let gop_of p = Ordered.Gop.ground p 0

let af_pruned ?limit g = B.value (S.assumption_free_models ?limit g)
let af_naive ?limit g = B.value (O.Stable.assumption_free_models ?limit g)
let af_comp ?limit ?stats g = B.value (K.assumption_free_models ?limit ?stats g)
let st_pruned ?limit g = B.value (S.stable_models ?limit g)
let st_naive ?limit g = B.value (O.Stable.stable_models ?limit g)
let st_comp ?limit g = B.value (K.stable_models ?limit g)
let tot_pruned ?limit g = B.value (E.total_models ?limit g)
let tot_naive ?limit g = B.value (O.Exhaustive.total_models ?limit g)
let tot_comp ?limit ?stats g = B.value (K.total_models ?limit ?stats g)

(* The rule-less program: an empty grounding, whose least model {} is
   its one assumption-free, stable and total model.  Mixed into every
   random-program property below. *)
let empty_program = Ordered.Program.make_exn [ ("c0", []) ] []

let gen_program =
  Gen.frequency [ (1, Gen.pure empty_program); (19, Test_props.gen_ordered 4) ]

let interp_list_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 Interp.equal l1 l2

let prop_af_sets =
  qcheck
    ~count:(iters "af" 400)
    ~print:print_program "pruned = naive: assumption-free model sets"
    gen_program
    (fun p ->
      let g = gop_of p in
      interp_set_equal (af_pruned g) (af_naive g))

let prop_stable_sets =
  qcheck
    ~count:(iters "stable" 250)
    ~print:print_program "pruned = naive: stable model sets"
    gen_program
    (fun p ->
      let g = gop_of p in
      interp_set_equal (st_pruned g) (st_naive g))

let prop_total_sets =
  qcheck
    ~count:(iters "total" 250)
    ~print:print_program "pruned = naive: total model sets"
    gen_program
    (fun p ->
      let g = gop_of p in
      interp_set_equal (tot_pruned g) (tot_naive g))

(* The compiled kernel's contract is stronger than set equality: same
   tree, same order, so its enumerations equal the pruned ones as lists,
   and nogood skips can only remove conflicting subtrees, so it never
   visits more nodes. *)
let prop_compiled_lists =
  qcheck
    ~count:(iters "compiled" 400)
    ~print:print_program
    "compiled = pruned: af/stable/total enumerations, in order"
    gen_program
    (fun p ->
      let g = gop_of p in
      interp_list_equal (af_comp g) (af_pruned g)
      && interp_list_equal (st_comp g) (st_pruned g)
      && interp_list_equal (tot_comp g) (tot_pruned g))

let prop_compiled_nodes =
  qcheck
    ~count:(iters "compiled-nodes" 250)
    ~print:print_program "compiled visits no more nodes than pruned"
    gen_program
    (fun p ->
      let g = gop_of p in
      let pruned = Ordered.Counters.create () in
      let comp = Ordered.Counters.create () in
      ignore (B.value (S.assumption_free_models ~stats:pruned g));
      ignore (af_comp ~stats:comp g);
      let pruned_tot = Ordered.Counters.create () in
      let comp_tot = Ordered.Counters.create () in
      ignore (B.value (E.total_models ~stats:pruned_tot g));
      ignore (tot_comp ~stats:comp_tot g);
      comp.Ordered.Counters.nodes <= pruned.Ordered.Counters.nodes
      && comp.Ordered.Counters.models = pruned.Ordered.Counters.models
      && comp_tot.Ordered.Counters.nodes <= pruned_tot.Ordered.Counters.nodes
      && comp_tot.Ordered.Counters.models = pruned_tot.Ordered.Counters.models)

(* OV transform of a random seminegative program: the -A axioms make every
   atom a head of both polarities, so the search genuinely branches three
   ways everywhere. *)
let gen_ov = Gen.list_size (Gen.int_range 1 6) (Test_props.gen_seminegative_rule 3)

let prop_ov_sets =
  qcheck
    ~count:(iters "ov" 200)
    ~print:print_rules
    "pruned = naive = compiled on OV programs (assumption-free and stable)"
    gen_ov
    (fun rs ->
      let g = Ordered.Bridge.ground_ov rs in
      interp_set_equal (af_pruned g) (af_naive g)
      && interp_set_equal (st_pruned g) (st_naive g)
      && interp_list_equal (af_comp g) (af_pruned g)
      && interp_list_equal (st_comp g) (st_pruned g))

let prop_limit_counts =
  qcheck ~count:200
    ~print:(fun (p, k) -> Printf.sprintf "%s limit=%d" (print_program p) k)
    "pruned = naive: counts under ?limit"
    Gen.(
      let* p = gen_program in
      let* k = int_bound 4 in
      return (p, k))
    (fun (p, k) ->
      let g = gop_of p in
      let total_af = List.length (af_naive g) in
      let total_tot = List.length (tot_naive g) in
      List.length (af_pruned ~limit:k g) = min k total_af
      && List.length (af_naive ~limit:k g) = min k total_af
      && List.length (tot_pruned ~limit:k g) = min k total_tot
      && List.length (tot_naive ~limit:k g) = min k total_tot)

let take k l = List.filteri (fun i _ -> i < k) l

let prop_limit_prefix =
  qcheck ~count:150
    ~print:(fun (p, k) -> Printf.sprintf "%s limit=%d" (print_program p) k)
    "?limit:k is the first k of each engine's own enumeration"
    Gen.(
      let* p = gen_program in
      let* k = int_bound 4 in
      return (p, k))
    (fun (p, k) ->
      let g = gop_of p in
      let prefix_of enum =
        let full = enum ?limit:None g in
        let limited = enum ?limit:(Some k) g in
        List.length limited = min k (List.length full)
        && List.for_all2 Interp.equal limited (take (List.length limited) full)
      in
      prefix_of (fun ?limit g -> af_pruned ?limit g)
      && prefix_of (fun ?limit g -> af_naive ?limit g)
      && prefix_of (fun ?limit g -> af_comp ?limit g)
      && prefix_of (fun ?limit g -> tot_pruned ?limit g)
      && prefix_of (fun ?limit g -> tot_naive ?limit g)
      && prefix_of (fun ?limit g -> tot_comp ?limit g))

let prop_stable_limit_consistent =
  qcheck ~count:100
    ~print:(fun (p, k) -> Printf.sprintf "%s limit=%d" (print_program p) k)
    "stable ?limit = maximal of the same engine's limited enumeration"
    Gen.(
      let* p = gen_program in
      let* k = int_bound 4 in
      return (p, k))
    (fun (p, k) ->
      let g = gop_of p in
      let maximal models =
        List.filter
          (fun m ->
            not
              (List.exists
                 (fun m' -> (not (Interp.equal m m')) && Interp.subset m m')
                 models))
          models
      in
      interp_set_equal (st_pruned ~limit:k g) (maximal (af_pruned ~limit:k g))
      && interp_set_equal (st_naive ~limit:k g) (maximal (af_naive ~limit:k g)))

let prop_pruned_sound =
  qcheck ~count:150 ~print:print_program
    "pruned search emits assumption-free models, least model first"
    gen_program
    (fun p ->
      let g = gop_of p in
      match af_pruned g with
      | [] -> false (* the least model is always assumption-free *)
      | first :: _ as ms ->
        Interp.equal first (Ordered.Vfix.least_model g)
        && List.for_all (Ordered.Model.is_assumption_free g) ms)

(* Preference programs exercise the compiled kernel on the gops the
   preferred-model route actually searches: per-rule components, control
   atoms, deep component orders.  [Prefer.Compile.preferred_models] is
   the pruned stable search on [Prefer.Compile.gop], so the compiled
   kernel on the same gop must enumerate the same models. *)
let prop_compiled_prefer =
  qcheck
    ~count:(iters "compiled-prefer" 300)
    ~print:Test_diff_prefer.print_case
    "compiled = pruned on compiled preference programs"
    (Test_diff_prefer.gen_preferred 4)
    (fun case ->
      let c = Prefer.Compile.compile (Test_diff_prefer.spec_of case) in
      let g = Prefer.Compile.gop c in
      interp_list_equal (st_comp g) (st_pruned g)
      && interp_set_equal (st_comp g)
           (B.value (Prefer.Compile.preferred_models c)))

let suite =
  [ prop_af_sets;
    prop_stable_sets;
    prop_total_sets;
    prop_compiled_lists;
    prop_compiled_nodes;
    prop_ov_sets;
    prop_limit_counts;
    prop_limit_prefix;
    prop_stable_limit_consistent;
    prop_pruned_sound;
    prop_compiled_prefer
  ]
