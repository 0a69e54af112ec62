(* Property-based tests (qcheck) for the paper's formal results on random
   propositional programs:

   - Lemma 1   : V is monotone;
   - Prop. 1   : lfp(V) is a model;
   - Thm. 1(a) : assumption-free iff enabled fixpoint (two independent
                 implementations agree);
   - Thm. 1(b) : lfp(V) is the intersection of all models;
   - Prop. 2   : every model extends to an exhaustive model;
   - Prop. 3   : models of OV(C) in C are 3-valued models of C;
   - Prop. 4   : assumption-free models of OV(C) are founded 3-valued
                 models of C (the paper's converse fails; see
                 Test_deviations);
   - Cor. 1    : stable models of C [SZ] = stable models of OV(C) in C;
   - Prop. 5   : EV(C) captures exactly the 3-valued models; OV/EV stable
                 models coincide;
   - Thm. 2    : Definition 10 (via 3V) = Definition 11 (direct);
   plus engine cross-checks (incremental vs naive V, counting vs naive
   T_P, parser round-trips, unification laws) and end-to-end properties
   over non-ground random programs (grounding + engines + goal-directed
   proof + queries). *)

open Logic
open Helpers
module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let atom_names = [| "p"; "q"; "r"; "s" |]

let gen_atom n = Gen.map (fun i -> Atom.prop atom_names.(i)) (Gen.int_bound (n - 1))

let gen_literal n =
  Gen.map2 (fun pol a -> Literal.make pol a) Gen.bool (gen_atom n)

let gen_body n = Gen.list_size (Gen.int_bound 2) (gen_literal n)

(* Negative program: any heads. *)
let gen_negative_rule n =
  Gen.map2 (fun h b -> Rule.make h b) (gen_literal n) (gen_body n)

(* Seminegative program: positive heads. *)
let gen_seminegative_rule n =
  Gen.map2 (fun h b -> Rule.make (Literal.pos h) b) (gen_atom n) (gen_body n)

let gen_rules gen_rule n = Gen.list_size (Gen.int_range 1 5) (gen_rule n)

(* Ordered program over up to 3 components; pairs (i, j) with i < j
   numerically keep the order acyclic. *)
let gen_ordered n =
  let open Gen in
  let* ncomp = int_range 1 3 in
  let* comps =
    flatten_l
      (List.init ncomp (fun i ->
           let* rs = gen_rules gen_negative_rule n in
           return (Printf.sprintf "c%d" i, rs)))
  in
  let all_pairs =
    List.concat
      (List.init ncomp (fun i ->
           List.filter_map
             (fun j -> if i < j then Some (i, j) else None)
             (List.init ncomp Fun.id)))
  in
  let* chosen = flatten_l (List.map (fun p -> map (fun b -> (p, b)) bool) all_pairs) in
  let pairs =
    List.filter_map
      (fun (((i : int), j), b) ->
        if b then Some (Printf.sprintf "c%d" i, Printf.sprintf "c%d" j) else None)
      chosen
  in
  return (Ordered.Program.make_exn comps pairs)

let gop_of prog = Ordered.Gop.ground prog 0

(* A random interpretation over a list of atoms. *)
let gen_interp_over atoms =
  let open Gen in
  let* choices = flatten_l (List.map (fun a -> map (fun c -> (a, c)) (int_bound 2)) atoms) in
  return
    (List.fold_left
       (fun m (a, c) ->
         if c = 0 then m else Interp.set m a (c = 1))
       Interp.empty choices)

(* ------------------------------------------------------------------ *)
(* Engine laws                                                         *)
(* ------------------------------------------------------------------ *)

let prop_engines_agree =
  qcheck ~count:150 ~print:print_program "V: incremental = naive"
    (gen_ordered 4) (fun p ->
      let g = gop_of p in
      Ordered.Gop.Values.equal (Ordered.Vfix.lfp g) (Oracle.Vfix.lfp_naive g))

let prop_lemma1_monotone =
  qcheck ~count:150
    ~print:(fun (p, i, j0) ->
      Format.asprintf "%s@.I = %a, J0 = %a" (print_program p) Interp.pp i
        Interp.pp j0)
    "Lemma 1: V monotone"
    Gen.(
      let* p = gen_ordered 4 in
      let g = gop_of p in
      let atoms = Ordered.Gop.active_base g in
      let* i = gen_interp_over atoms in
      let* j0 = gen_interp_over atoms in
      return (p, i, j0))
    (fun (p, i, j0) ->
      let g = gop_of p in
      (* j := a consistent extension of i by j0's extra literals *)
      let j =
        Interp.fold
          (fun a b m ->
            match Interp.value m a with
            | Interp.Undefined -> Interp.set m a b
            | _ -> m)
          j0 i
      in
      let vi, _ = Ordered.Gop.Values.of_interp g i in
      let vj, _ = Ordered.Gop.Values.of_interp g j in
      let si = Ordered.Gop.Values.to_interp g (Ordered.Vfix.step g vi) in
      let sj = Ordered.Gop.Values.to_interp g (Ordered.Vfix.step g vj) in
      Interp.subset si sj)

let prop_prop1_lfp_is_model =
  qcheck ~count:150 ~print:print_program "Prop 1: lfp(V) is a model"
    (gen_ordered 4) (fun p ->
      let g = gop_of p in
      Ordered.Model.is_model g (Ordered.Vfix.least_model g))

let prop_lfp_assumption_free =
  qcheck ~count:150 ~print:print_program "Thm 1(b): lfp(V) is assumption-free"
    (gen_ordered 4) (fun p ->
      let g = gop_of p in
      Ordered.Model.is_assumption_free g (Ordered.Vfix.least_model g))

let prop_thm1b_intersection =
  qcheck ~count:40 ~print:print_program
    "Thm 1(b): lfp(V) = intersection of models" (gen_ordered 3) (fun p ->
      let g = gop_of p in
      let lfp = Ordered.Vfix.least_model g in
      let models =
        List.filter (Ordered.Model.is_model g)
          (all_interps (Ordered.Gop.active_base g))
      in
      match models with
      | [] -> false (* a model always exists (Prop 1) *)
      | m :: rest ->
        let inter =
          List.fold_left
            (fun acc m -> List.filter (fun l -> Interp.holds m l) acc)
            (Interp.to_literals m) rest
        in
        Interp.equal lfp (Interp.of_literals inter))

let prop_thm1a_methods_agree =
  qcheck ~count:40 ~print:print_program
    "Thm 1(a): assumption-free iff no assumption set" (gen_ordered 3)
    (fun p ->
      let g = gop_of p in
      List.for_all
        (fun m ->
          (not (Ordered.Model.is_model g m))
          || Bool.equal
               (Ordered.Model.is_assumption_free g m)
               (Ordered.Model.largest_assumption_set g m = []))
        (all_interps (Ordered.Gop.active_base g)))

let prop_prop2_extension =
  qcheck ~count:25 ~print:print_program
    "Prop 2: models extend to exhaustive models" (gen_ordered 3) (fun p ->
      let g = gop_of p in
      let lfp = Ordered.Vfix.least_model g in
      let e = Ordered.Exhaustive.extend g lfp in
      Interp.subset lfp e
      && Ordered.Model.is_model g e
      && Ordered.Exhaustive.is_exhaustive g e)

let prop_stable_are_maximal_af =
  qcheck ~count:40 ~print:print_program
    "Def 9: stable models are maximal assumption-free" (gen_ordered 3)
    (fun p ->
      let g = gop_of p in
      let af = Ordered.Budget.value (Ordered.Stable.assumption_free_models g) in
      let stable = Ordered.Budget.value (Ordered.Stable.stable_models g) in
      List.for_all (fun s -> Ordered.Model.is_assumption_free g s) stable
      && List.for_all
           (fun s ->
             not
               (List.exists
                  (fun m -> (not (Interp.equal s m)) && Interp.subset s m)
                  af))
           stable
      && List.for_all
           (fun m -> List.exists (fun s -> Interp.subset m s) stable)
           af)

(* ------------------------------------------------------------------ *)
(* Section 3 bridges                                                   *)
(* ------------------------------------------------------------------ *)

let gen_semineg = gen_rules gen_seminegative_rule 3

let prop_prop3 =
  qcheck ~count:40 ~print:print_rules "Prop 3: OV models are 3-valued models"
    gen_semineg (fun rs ->
      let np = Datalog.Nprog.of_rules rs in
      let gov = Ordered.Bridge.ground_ov rs in
      List.for_all
        (fun m ->
          (not (Ordered.Model.is_model gov m))
          || Datalog.Threeval.is_three_valued_model np m)
        (all_interps (Ordered.Gop.active_base gov)))

let prop_prop4_af_implies_founded =
  qcheck ~count:40 ~print:print_rules
    "Prop 4: OV assumption-free => founded 3-valued" gen_semineg (fun rs ->
      let np = Datalog.Nprog.of_rules rs in
      let gov = Ordered.Bridge.ground_ov rs in
      List.for_all
        (fun m ->
          Datalog.Threeval.is_three_valued_model np m
          && Datalog.Threeval.is_founded np m)
        (Ordered.Budget.value (Ordered.Stable.assumption_free_models gov)))

let prop_cor1_stable_coincide =
  qcheck ~count:40 ~print:print_rules "Cor 1: SZ stable = OV stable"
    gen_semineg (fun rs ->
      let np = Datalog.Nprog.of_rules rs in
      let gov = Ordered.Bridge.ground_ov rs in
      interp_set_equal
        (Datalog.Threeval.stable_models np)
        (Ordered.Budget.value (Ordered.Stable.stable_models gov)))

let prop_prop5a_ev_models =
  qcheck ~count:40 ~print:print_rules "Prop 5(a): EV models = 3-valued models"
    gen_semineg (fun rs ->
      let np = Datalog.Nprog.of_rules rs in
      let gev = Ordered.Bridge.ground_ev rs in
      List.for_all
        (fun m ->
          Bool.equal
            (Ordered.Model.is_model gev m)
            (Datalog.Threeval.is_three_valued_model np m))
        (all_interps (Ordered.Gop.active_base gev)))

let prop_prop5b_af_ov_subset_ev =
  qcheck ~count:40 ~print:print_rules
    "Prop 5(b): OV assumption-free models are EV ones" gen_semineg (fun rs ->
      let gov = Ordered.Bridge.ground_ov rs in
      let gev = Ordered.Bridge.ground_ev rs in
      List.for_all
        (Ordered.Model.is_assumption_free gev)
        (Ordered.Budget.value (Ordered.Stable.assumption_free_models gov)))

let prop_prop5c_af_ev_below_ov =
  qcheck ~count:25 ~print:print_rules
    "Prop 5(c): EV assumption-free models sit below OV ones" gen_semineg
    (fun rs ->
      let gov = Ordered.Bridge.ground_ov rs in
      let gev = Ordered.Bridge.ground_ev rs in
      let ov_af = Ordered.Budget.value (Ordered.Stable.assumption_free_models gov) in
      List.for_all
        (fun m -> List.exists (fun m' -> Interp.subset m m') ov_af)
        (Ordered.Budget.value (Ordered.Stable.assumption_free_models gev)))

let prop_prop5d_stable_coincide =
  qcheck ~count:40 ~print:print_rules "Prop 5(d): OV stable = EV stable"
    gen_semineg (fun rs ->
      interp_set_equal
        (Ordered.Budget.value (Ordered.Stable.stable_models (Ordered.Bridge.ground_ov rs)))
        (Ordered.Budget.value (Ordered.Stable.stable_models (Ordered.Bridge.ground_ev rs))))

let prop_gl_stable_via_ov =
  qcheck ~count:40 ~print:print_rules
    "GL total stable models appear among OV stable models" gen_semineg
    (fun rs ->
      let np = Datalog.Nprog.of_rules rs in
      let gov = Ordered.Bridge.ground_ov rs in
      let base = Array.to_list np.Datalog.Nprog.atoms in
      let gl =
        List.map
          (fun s -> Ordered.Bridge.interp_of_atom_set ~base s)
          (Datalog.Stable.models np)
      in
      let ov = Ordered.Budget.value (Ordered.Stable.stable_models gov) in
      List.for_all (fun m -> List.exists (Interp.equal m) ov) gl)

(* ------------------------------------------------------------------ *)
(* Section 4: Theorem 2                                                *)
(* ------------------------------------------------------------------ *)

let prop_thm2_models =
  qcheck ~count:35 ~print:print_rules "Thm 2: Def 10 models = Def 11 models"
    (gen_rules gen_negative_rule 3) (fun rs ->
      let g3v = Ordered.Negative.ground_3v rs in
      let ground = Ordered.Negative.ground_program rs in
      List.for_all
        (fun m ->
          Bool.equal
            (Ordered.Model.is_model g3v m)
            (Ordered.Negative.direct_is_model ground m))
        (all_interps (Ordered.Gop.active_base g3v)))

let prop_thm2_stable =
  qcheck ~count:35 ~print:print_rules "Thm 2: Def 10 stable = Def 11 stable"
    (gen_rules gen_negative_rule 3) (fun rs ->
      interp_set_equal
        (negative_stable_models rs)
        (Ordered.Negative.direct_stable_models
           (Ordered.Negative.ground_program rs)))

(* ------------------------------------------------------------------ *)
(* Substrate laws                                                      *)
(* ------------------------------------------------------------------ *)

let prop_tp_engines =
  qcheck ~count:150 ~print:print_rules "T_P: counting = naive"
    (gen_rules gen_seminegative_rule 4) (fun rs ->
      let p = Datalog.Nprog.of_rules rs in
      Datalog.Consequence.lfp p = Datalog.Consequence.lfp_naive p)

let prop_wfs_in_stable =
  qcheck ~count:80 ~print:print_rules
    "WFS is contained in every GL stable model"
    (gen_rules gen_seminegative_rule 4) (fun rs ->
      let p = Datalog.Nprog.of_rules rs in
      let wf = Datalog.Wellfounded.compute p in
      List.for_all
        (fun m ->
          Array.for_all Fun.id
            (Array.mapi
               (fun i t -> (not t) || m.(i))
               wf.Datalog.Wellfounded.true_)
          && Array.for_all Fun.id
               (Array.mapi
                  (fun i f -> (not f) || not m.(i))
                  wf.Datalog.Wellfounded.false_))
        (Datalog.Stable.enumerate p))

let prop_stable_check_consistent =
  qcheck ~count:80 ~print:print_rules
    "GL enumeration only returns stable models"
    (gen_rules gen_seminegative_rule 4) (fun rs ->
      let p = Datalog.Nprog.of_rules rs in
      List.for_all (Datalog.Stable.is_stable p) (Datalog.Stable.enumerate p))

(* ------------------------------------------------------------------ *)
(* Parser and unification laws                                         *)
(* ------------------------------------------------------------------ *)

let gen_fo_term_with vars =
  let open Gen in
  sized (fun budget ->
      fix
        (fun self budget ->
          if budget <= 0 then
            oneof
              [ map (fun i -> Term.Var (vars ^ string_of_int i)) (int_bound 2);
                map (fun i -> Term.Int i) (int_range (-5) 20);
                oneofl [ Term.Sym "a"; Term.Sym "b"; Term.Sym "penguin" ]
              ]
          else
            oneof
              [ map (fun i -> Term.Var (vars ^ string_of_int i)) (int_bound 2);
                oneofl [ Term.Sym "a"; Term.Sym "b" ];
                map2
                  (fun f args -> Term.App (f, args))
                  (oneofl [ "f"; "g" ])
                  (list_size (int_range 1 2) (self (budget / 2)))
              ])
        (min budget 6))

let gen_fo_term = gen_fo_term_with "X"

let prop_term_roundtrip =
  qcheck ~count:300 ~print:Term.to_string "terms print/parse round-trip"
    gen_fo_term (fun t -> Term.equal t (term (Term.to_string t)))

let gen_fo_rule =
  let open Gen in
  let atom =
    map2 (fun p args -> Atom.make p args)
      (oneofl [ "p"; "q"; "edge" ])
      (list_size (int_bound 2) gen_fo_term)
  in
  let literal = map2 Literal.make bool atom in
  map2 Rule.make literal (list_size (int_bound 3) literal)

let prop_rule_roundtrip =
  qcheck ~count:300 ~print:Rule.to_string "rules print/parse round-trip"
    gen_fo_rule (fun r -> Rule.equal r (rule (Rule.to_string r)))

let prop_unify_sound =
  qcheck ~count:500
    ~print:(fun (a, b) -> Term.to_string a ^ " =? " ^ Term.to_string b)
    "unifiers unify"
    (Gen.pair gen_fo_term gen_fo_term)
    (fun (t1, t2) ->
      match Unify.term t1 t2 with
      | None -> true
      | Some s -> Term.equal (Subst.apply_term s t1) (Subst.apply_term s t2))

let prop_match_sound =
  (* Pattern and subject variables are renamed apart, as the engines do. *)
  qcheck ~count:500
    ~print:(fun (a, b) -> Term.to_string a ^ " <=? " ^ Term.to_string b)
    "matchers match"
    (Gen.pair gen_fo_term (gen_fo_term_with "Y"))
    (fun (pat, t) ->
      match Unify.match_term pat t with
      | None -> true
      | Some s -> Term.equal (Subst.apply_term s pat) t)

(* ------------------------------------------------------------------ *)
(* Non-ground random programs: grounding + engines end-to-end          *)
(* ------------------------------------------------------------------ *)

let gen_fo_program =
  let open Gen in
  let term_g = oneofl [ Term.Sym "a"; Term.Sym "b"; Term.Var "X"; Term.Var "Y" ] in
  let atom_g =
    let* which = int_bound 2 in
    match which with
    | 0 -> map (fun t -> Atom.make "p" [ t ]) term_g
    | 1 -> map (fun t -> Atom.make "q" [ t ]) term_g
    | _ -> map2 (fun t u -> Atom.make "r" [ t; u ]) term_g term_g
  in
  let literal_g = map2 Literal.make bool atom_g in
  let rule_g = map2 Rule.make literal_g (list_size (int_bound 2) literal_g) in
  let* ncomp = int_range 1 2 in
  let* comps =
    flatten_l
      (List.init ncomp (fun i ->
           let* rs = list_size (int_range 1 4) rule_g in
           return (Printf.sprintf "c%d" i, rs)))
  in
  let pairs = if ncomp = 2 then [ ("c0", "c1") ] else [] in
  return (Ordered.Program.make_exn comps pairs)

let prop_fo_engines_agree =
  qcheck ~count:120 ~print:print_program
    "non-ground: V engines agree after grounding" gen_fo_program (fun p ->
      let g = Ordered.Gop.ground p 0 in
      Ordered.Gop.Values.equal (Ordered.Vfix.lfp g) (Oracle.Vfix.lfp_naive g))

let prop_fo_lfp_is_af_model =
  qcheck ~count:120 ~print:print_program
    "non-ground: lfp is an assumption-free model" gen_fo_program (fun p ->
      let g = Ordered.Gop.ground p 0 in
      let m = Ordered.Vfix.least_model g in
      Ordered.Model.is_model g m && Ordered.Model.is_assumption_free g m)

let prop_fo_prove_agrees =
  qcheck ~count:120
    ~print:(fun (p, l) -> print_program p ^ " ? " ^ Literal.to_string l)
    "non-ground: goal-directed = materialised"
    Gen.(
      let* p = gen_fo_program in
      let* pol = bool in
      let* pred = oneofl [ "p"; "q" ] in
      let* c = oneofl [ "a"; "b" ] in
      return (p, Literal.make pol (Atom.make pred [ Term.Sym c ])))
    (fun (p, l) ->
      let g = Ordered.Gop.ground p 0 in
      Ordered.Prove.value g l
      = Interp.value_lit (Ordered.Vfix.least_model g) l)

let prop_fo_query_answers_sound =
  qcheck ~count:120 ~print:print_program
    "non-ground: query answers are true instances" gen_fo_program (fun p ->
      let g = Ordered.Gop.ground p 0 in
      let m = Ordered.Vfix.least_model g in
      List.for_all
        (fun pat ->
          List.for_all
            (fun inst -> Interp.holds m inst)
            (Ordered.Query.holds_instances g pat))
        [ Literal.pos (Atom.make "p" [ Term.Var "Z" ]);
          Literal.neg_atom (Atom.make "r" [ Term.Var "Z"; Term.Var "W" ])
        ])

(* Shared with Test_query's property test. *)
let gen_program_and_literal =
  Gen.(
    let* p = gen_ordered 4 in
    let* pol = bool in
    let* a = gen_atom 4 in
    return (p, Literal.make pol a))

let print_program_and_literal (p, l) =
  print_program p ^ " ? " ^ Literal.to_string l

let suite =
  [ prop_engines_agree;
    prop_lemma1_monotone;
    prop_prop1_lfp_is_model;
    prop_lfp_assumption_free;
    prop_thm1b_intersection;
    prop_thm1a_methods_agree;
    prop_prop2_extension;
    prop_stable_are_maximal_af;
    prop_prop3;
    prop_prop4_af_implies_founded;
    prop_cor1_stable_coincide;
    prop_prop5a_ev_models;
    prop_prop5b_af_ov_subset_ev;
    prop_prop5c_af_ev_below_ov;
    prop_prop5d_stable_coincide;
    prop_gl_stable_via_ov;
    prop_thm2_models;
    prop_thm2_stable;
    prop_tp_engines;
    prop_wfs_in_stable;
    prop_stable_check_consistent;
    prop_term_roundtrip;
    prop_rule_roundtrip;
    prop_unify_sound;
    prop_match_sound;
    prop_fo_engines_agree;
    prop_fo_lfp_is_af_model;
    prop_fo_prove_agrees;
    prop_fo_query_answers_sound
  ]
