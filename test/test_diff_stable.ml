(* Differential testing of the three enumeration engines — compiled
   ([Solve.Kernel]), pruned branch-and-propagate ([Ordered.Stable],
   [Oracle.Pruned] for total models), and the leaf-check oracles
   ([Oracle.Stable], [Oracle.Exhaustive]) — on random programs:

   - same assumption-free / stable / total model sets across all three;
   - the compiled kernel reproduces the pruned enumeration {e order}
     exactly (list equality, not just set equality) and never visits
     more search nodes;
   - same counts under [?limit] (assumption-free and total enumerate in
     different orders but both return min(limit, total) models);
   - each engine's [?limit:k] result is exactly the first k of its own
     unlimited enumeration (the documented search-order contract), the
     stable models included;
   - on programs with planted independent parts, the part-wise stable
     models ([Ordered.Parts]) equal the oracle's maximal assumption-free
     models, every [?limit] is a prefix, and every model of a [Partial]
     result is stable;
   - the pruned search only emits assumption-free models and starts with
     the least model;
   - on compiled preference programs ([Prefer.Compile]), the compiled
     kernel agrees with the pruned search;
   - the kernel's boolean queries (cautious, brave, cautious
     consequences, is_stable) equal the values read off the leaf-check
     oracle's stable models.

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
module E = Oracle.Pruned
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
      && prefix_of (fun ?limit g -> st_pruned ?limit g)
      && prefix_of (fun ?limit g -> st_naive ?limit g)
      && prefix_of (fun ?limit g -> st_comp ?limit g)
      && prefix_of (fun ?limit g -> tot_pruned ?limit g)
      && prefix_of (fun ?limit g -> tot_naive ?limit g)
      && prefix_of (fun ?limit g -> tot_comp ?limit g))

(* [k] copies of a random program over disjoint atoms (each copy's
   predicates carry its index), merged component by component under one
   order: the residual splits into at least one part per copy that has
   one, so the stable models are a product.  With [same], every copy is
   the same program, so each part of one copy has an isomorphic part in
   every other. *)
let gen_copies ~same =
  let open Gen in
  let* k = int_range 2 3 in
  let n = if k = 2 then 3 else 2 in
  let* ncomp = int_range 1 3 in
  let gen_copy =
    flatten_l
      (List.init ncomp (fun _ ->
           Test_props.gen_rules Test_props.gen_negative_rule n))
  in
  let* copies =
    if same then map (fun c -> List.init k (fun _ -> c)) gen_copy
    else flatten_l (List.init k (fun _ -> gen_copy))
  in
  let* chosen =
    flatten_l
      (List.concat
         (List.init ncomp (fun i ->
              List.filter_map
                (fun j -> if i < j then Some (map (fun b -> (i, j, b)) bool) else None)
                (List.init ncomp Fun.id))))
  in
  let tag c (l : Literal.t) =
    Literal.make l.Literal.pol (Atom.prop (Printf.sprintf "%s%d" l.atom.Atom.pred c))
  in
  let comps =
    List.init ncomp (fun i ->
        ( Printf.sprintf "c%d" i,
          List.concat
            (List.mapi
               (fun c rules ->
                 List.map
                   (fun (r : Rule.t) ->
                     Rule.make (tag c r.Rule.head) (List.map (tag c) r.Rule.body))
                   (List.nth rules i))
               copies) ))
  in
  let pairs =
    List.filter_map
      (fun (i, j, b) ->
        if b then Some (Printf.sprintf "c%d" i, Printf.sprintf "c%d" j) else None)
      chosen
  in
  return (k, Ordered.Program.make_exn comps pairs)

let gen_planted = Gen.map snd (gen_copies ~same:false)

(* One choice gadget per copy — [a. b.] in [hi], [-a :- b. -b :- a.]
   in [lo], below [hi] — each one residual part over [a] and [b], and
   one near copy that differs from the others in one respect only: its
   two [lo] rules sit in [side], incomparable with [hi], so they defeat
   instead of overrule; or one body gains a literal on an atom no rule
   derives ([u]); or one body literal on a branch atom flips its
   polarity.  The viewpoint [v] sees every component.  Returns the
   number of copies and the program. *)
let gen_near =
  let open Gen in
  let* k = int_range 1 3 in
  let* near = int_bound k in
  let* variant = int_bound 2 in
  let gadget c v =
    let at = Printf.sprintf "%s%d" in
    let a = at "a" c and b = at "b" c and u = at "u" c in
    let hi = [ Printf.sprintf "%s." a; Printf.sprintf "%s." b ] in
    let lo =
      [ (match v with
        | Some 1 -> Printf.sprintf "-%s :- %s, %s." a b u
        | Some 2 -> Printf.sprintf "-%s :- -%s." a b
        | _ -> Printf.sprintf "-%s :- %s." a b);
        Printf.sprintf "-%s :- %s." b a ]
    in
    if v = Some 0 then (hi, [], lo) else (hi, lo, [])
  in
  let gadgets =
    List.init (k + 1) (fun c -> gadget c (if c = near then Some variant else None))
  in
  let comp name pick =
    (name, List.concat_map (fun g -> List.map rule (pick g)) gadgets)
  in
  return
    ( k + 1,
      Ordered.Program.make_exn
        [ ("v", []); comp "hi" (fun (h, _, _) -> h);
          comp "lo" (fun (_, l, _) -> l); comp "side" (fun (_, _, s) -> s) ]
        [ ("v", "lo"); ("v", "side"); ("lo", "hi") ] )

(* Listings that carry one table, at every limit from 0 to n+1 in a
   seeded order, each equal to the uncached kernel's prefix; a budgeted
   carried listing (from a fresh table and from the warm one) whose
   [Partial] result holds only stable models, as a prefix; and complete
   carried listings afterwards.  Returns the warm table. *)
let carried_agrees ~order ~steps g =
  let module P = Ordered.Parts in
  let full = st_comp g in
  let stable m = List.exists (Interp.equal m) full in
  let listing ?limit ?budget c = K.stable_models ?limit ?budget ~carry:c g in
  let limits = Array.init (List.length full + 2) Fun.id in
  let rng = Random.State.make [| order |] in
  for i = Array.length limits - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = limits.(i) in
    limits.(i) <- limits.(j);
    limits.(j) <- x
  done;
  let warm = P.carry P.empty in
  let budgeted c =
    match listing ~budget:(B.make ~max_steps:steps ()) c with
    | B.Complete ms -> interp_list_equal ms full
    | B.Partial (ms, _) ->
      List.for_all stable ms && interp_list_equal ms (take (List.length ms) full)
  in
  let cold = P.carry P.empty in
  let ok =
    Array.for_all
      (fun l -> interp_list_equal (B.value (listing ~limit:l warm)) (take l full))
      limits
    && budgeted cold
    && interp_list_equal (B.value (listing cold)) full
    && budgeted warm
    && interp_list_equal (B.value (listing warm)) full
  in
  (ok, warm)

let n_parts g =
  Ordered.Parts.n_parts
    (Ordered.Parts.split g (Ordered.Parts.least (Ordered.Vfix.lfp g)))

let prop_planted_parts =
  qcheck
    ~count:(iters "planted" 300)
    ~print:(fun (p, n) -> Printf.sprintf "%s max_steps=%d" (print_program p) n)
    "split = oracle on planted parts: sets, prefixes, certified partials"
    Gen.(pair gen_planted (int_bound 400))
    (fun (p, n) ->
      let g = gop_of p in
      let full = st_comp g in
      let oracle = st_naive g in
      let stable m = List.exists (Interp.equal m) oracle in
      interp_set_equal full oracle
      && interp_list_equal (st_pruned g) full
      && List.for_all
           (fun l ->
             interp_list_equal (st_comp ~limit:l g) (take l full)
             && interp_list_equal (st_pruned ~limit:l g) (take l full))
           (List.init (List.length full + 2) Fun.id)
      &&
      match K.stable_models ~budget:(B.make ~max_steps:n ()) g with
      | B.Complete ms -> interp_list_equal ms full
      | B.Partial (ms, _) ->
        List.for_all stable ms
        && interp_list_equal ms (take (List.length ms) full))

let prop_carried_parts =
  qcheck
    ~count:(iters "carried" 300)
    ~print:(fun (p, (o, n)) ->
      Printf.sprintf "%s order=%d max_steps=%d" (print_program p) o n)
    "carried part lists = uncached kernel: every limit, partial prefixes"
    Gen.(pair gen_planted (pair int (int_bound 400)))
    (fun (p, (order, steps)) -> fst (carried_agrees ~order ~steps (gop_of p)))

(* Identical copies: each key is shared by at least one part per copy,
   so the warm table has at most [parts / copies] entries. *)
let prop_carried_copies =
  qcheck
    ~count:(iters "copies" 300)
    ~print:(fun ((k, p), (o, n)) ->
      Printf.sprintf "%d copies: %s order=%d max_steps=%d" k (print_program p) o n)
    "identical parts share one carried list"
    Gen.(pair (gen_copies ~same:true) (pair int (int_bound 400)))
    (fun ((k, p), (order, steps)) ->
      let g = gop_of p in
      let ok, warm = carried_agrees ~order ~steps g in
      ok && Ordered.Parts.size warm.Ordered.Parts.table * k <= n_parts g)

(* Near copies: the base copies share one key, the near copy has its
   own. *)
let prop_carried_near =
  qcheck
    ~count:(iters "near" 100)
    ~print:(fun ((k, p), (o, n)) ->
      Printf.sprintf "%d copies: %s order=%d max_steps=%d" k (print_program p) o n)
    "near-isomorphic parts get distinct keys"
    Gen.(pair gen_near (pair int (int_bound 200)))
    (fun ((k, p), (order, steps)) ->
      let g = gop_of p in
      let ok, warm = carried_agrees ~order ~steps g in
      ok && n_parts g = k && Ordered.Parts.size warm.Ordered.Parts.table = 2)

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
   atoms, deep component orders.  The preferred models are the stable
   models of [Prefer.Compile.gop], so the kernel must enumerate them in
   the pruned search's order there too. *)
let prop_compiled_prefer =
  qcheck
    ~count:(iters "compiled-prefer" 300)
    ~print:Test_diff_prefer.print_case
    "compiled = pruned on compiled preference programs"
    (Test_diff_prefer.gen_preferred 4)
    (fun case ->
      let c = Prefer.Compile.compile (Test_diff_prefer.spec_of case) in
      let g = Prefer.Compile.gop c in
      interp_list_equal (st_comp g) (st_pruned g))

(* The boolean queries against their definitions over the oracle's
   stable models: every literal of the active base with both signs for
   cautious/brave, and for is_stable every assumption-free model plus
   every total model (models that need not be assumption-free).  Random
   ordered programs and OV programs: the latter have many stable models
   that disagree on an atom in either order, which is what separates
   cautious consequences from the first model. *)
let prop_boolean_queries =
  let gen =
    Gen.oneof
      [ Gen.map (fun p -> `Ordered p) gen_program;
        Gen.map (fun rs -> `Ov rs) gen_ov
      ]
  in
  let print = function
    | `Ordered p -> print_program p
    | `Ov rs -> "OV of " ^ print_rules rs
  in
  qcheck
    ~count:(iters "boolean" 300)
    ~print "kernel boolean queries = oracle stable models" gen
    (fun case ->
      let g =
        match case with
        | `Ordered p -> gop_of p
        | `Ov rs -> Ordered.Bridge.ground_ov rs
      in
      let stable = st_naive g in
      let cautious l = List.for_all (fun m -> Interp.holds m l) stable in
      let brave l = List.exists (fun m -> Interp.holds m l) stable in
      let lits =
        List.concat_map
          (fun a -> [ Literal.pos a; Literal.neg_atom a ])
          (Ordered.Gop.active_base g)
      in
      let is_stable m = List.exists (Interp.equal m) stable in
      List.for_all
        (fun l ->
          Bool.equal (K.cautious g l) (cautious l)
          && Bool.equal (K.brave g l) (brave l))
        lits
      && Interp.equal (K.cautious_consequences g)
           (Interp.of_literals (List.filter cautious lits))
      && List.for_all
           (fun m -> Bool.equal (K.is_stable g m) (is_stable m))
           (Interp.empty :: (af_naive g @ tot_naive g)))

let suite =
  [ prop_af_sets;
    prop_stable_sets;
    prop_total_sets;
    prop_compiled_lists;
    prop_compiled_nodes;
    prop_ov_sets;
    prop_limit_counts;
    prop_limit_prefix;
    prop_planted_parts;
    prop_carried_parts;
    prop_carried_copies;
    prop_carried_near;
    prop_pruned_sound;
    prop_compiled_prefer;
    prop_boolean_queries
  ]
