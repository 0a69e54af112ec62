(* A guided tour through every example of the paper, executed.

   Each section prints what the paper claims and what this implementation
   computes; the test suite asserts the same facts, this program narrates
   them.  Run with: dune exec examples/paper_tour.exe *)

open Logic

let lit = Lang.Parser.parse_literal
let rules = Lang.Parser.parse_rules
let section n title = Format.printf "@.=== %s: %s ===@." n title

let ground_at prog name =
  Ordered.Gop.ground prog (Ordered.Program.component_id_exn prog name)

let show g q =
  Format.printf "  %-28s %a@." q Interp.pp_value
    (Interp.value_lit (Ordered.Vfix.least_model g) (lit q))

(* Definition 10: the stable models of a negative program are those of
   its 3-level version, grounded at the exceptions component. *)
let negative_stable_models rs =
  Ordered.Budget.value (Solve.Kernel.stable_models (Ordered.Negative.ground_3v rs))

let p1_src =
  {| component c2 {
       bird(penguin). bird(pigeon).
       fly(X) :- bird(X).
       -ground_animal(X) :- bird(X).
     }
     component c1 extends c2 {
       ground_animal(penguin).
       -fly(X) :- ground_animal(X).
     } |}

let () =
  section "Figure 1 / Example 1" "program P1: overruling";
  let p1 = Ordered.Program.parse_exn p1_src in
  let g1 = ground_at p1 "c1" in
  Format.printf " viewed from c1 (the exception applies):@.";
  show g1 "fly(penguin)";
  show g1 "fly(pigeon)";
  let g2 = ground_at p1 "c2" in
  Format.printf " viewed from c2 (no exception in sight):@.";
  show g2 "fly(penguin)";

  section "Example 2" "rule statuses w.r.t. I1";
  let i1 =
    Interp.of_literals
      (List.map lit
         [ "bird(pigeon)"; "bird(penguin)"; "ground_animal(penguin)";
           "-ground_animal(pigeon)"; "fly(pigeon)"; "-fly(penguin)"
         ])
  in
  List.iter
    (fun r -> Format.printf "  %a@." Ordered.Status.pp_report r)
    (Ordered.Status.report_all g1 i1);

  section "Example 3" "models of P1, P1-flattened, and P3";
  Format.printf "  I1 model of P1 in c1: %b@." (Ordered.Model.is_model g1 i1);
  let flat = Ordered.Program.singleton (Ordered.Program.all_rules p1) in
  let gf = ground_at flat "main" in
  Format.printf "  I1 model of flattened P1: %b@."
    (Ordered.Model.is_model gf i1);
  Format.printf "  least model of flattened P1: %a@." Interp.pp
    (Ordered.Vfix.least_model gf);
  let p3 = Ordered.Program.parse_exn "component main { a :- b. -a :- b. }" in
  let g3 = ground_at p3 "main" in
  Format.printf "  models of P3 = {a :- b. -a :- b.}:@.";
  List.iter
    (fun m ->
      if Ordered.Model.is_model g3 m then Format.printf "    %a@." Interp.pp m)
    (let atoms = Ordered.Gop.active_base g3 in
     let rec go = function
       | [] -> [ Interp.empty ]
       | a :: rest ->
         List.concat_map
           (fun m ->
             [ m; Interp.set m a true; Interp.set m a false ])
           (go rest)
     in
     go atoms);

  section "Figure 2 / Example 4" "program P2: defeating, partial models";
  let p2 =
    Ordered.Program.parse_exn
      {| component c3 { rich(mimmo). -poor(X) :- rich(X). }
         component c2 { poor(mimmo). -rich(X) :- poor(X). }
         component c1 extends c2, c3 { free_ticket(X) :- poor(X). } |}
  in
  let gp2 = ground_at p2 "c1" in
  show gp2 "rich(mimmo)";
  show gp2 "free_ticket(mimmo)";
  Format.printf "  total models in c1: %d (the paper: none exists)@."
    (List.length (Ordered.Budget.value (Solve.Kernel.total_models gp2)));

  section "Figure 3" "the loan program";
  List.iter
    (fun (label, facts) ->
      let src =
        {| component c2 { take_loan :- inflation(X), X > 11. }
           component c4 { -take_loan :- loan_rate(X), X > 14. }
           component c3 extends c4 {
             take_loan :- inflation(X), loan_rate(Y), X > Y + 2. }
           component c1 extends c2, c3 { |}
        ^ facts ^ " }"
      in
      let g = ground_at (Ordered.Program.parse_exn src) "c1" in
      Format.printf "  %-34s take_loan = %a@." label Interp.pp_value
        (Interp.value_lit (Ordered.Vfix.least_model g) (lit "take_loan")))
    [ ("myself empty:", "");
      ("inflation(12):", "inflation(12).");
      ("inflation(12), loan_rate(16):", "inflation(12). loan_rate(16).");
      ("inflation(19), loan_rate(16):", "inflation(19). loan_rate(16).")
    ];

  section "Example 5" "program P5: two stable models";
  let p5 =
    Ordered.Program.parse_exn
      {| component c2 { a. b. c. }
         component c1 extends c2 { -a :- b, c. -b :- a. -b :- -b. } |}
  in
  let g5 = ground_at p5 "c1" in
  Format.printf "  least (assumption-free, not stable): %a@." Interp.pp
    (Ordered.Vfix.least_model g5);
  List.iter
    (fun m -> Format.printf "  stable: %a@." Interp.pp m)
    (Ordered.Budget.value (Solve.Kernel.stable_models g5));

  section "Example 6" "OV(ancestor): explicit closed world";
  let anc =
    rules
      "anc(X, Y) :- parent(X, Y). anc(X, Y) :- parent(X, Z), anc(Z, Y). \
       parent(a, b). parent(b, c)."
  in
  let gov = Ordered.Bridge.ground_ov anc in
  let m = Ordered.Vfix.least_model gov in
  Format.printf "  anc(a, c) = %a, anc(c, a) = %a (total: %b)@."
    Interp.pp_value
    (Interp.value_lit m (lit "anc(a, c)"))
    Interp.pp_value
    (Interp.value_lit m (lit "anc(c, a)"))
    (Ordered.Exhaustive.is_total gov m);

  section "Example 7" "{p} and the OV/EV split on p :- -p";
  let c7 = rules "p :- -p." in
  let m7 = Interp.of_literals [ lit "p" ] in
  (* Prop. 5(a): the 3-valued models of C are the models of EV(C) in C *)
  let three_valued = Ordered.Model.is_model (Ordered.Bridge.ground_ev c7) m7 in
  Format.printf "  {p} 3-valued model of C: %b@." three_valued;
  Format.printf "  {p} model of OV(C) in C: %b@."
    (Ordered.Model.is_model (Ordered.Bridge.ground_ov c7) m7);
  Format.printf "  {p} model of EV(C) in C: %b (Prop. 5a)@." three_valued;

  section "Examples 8-9" "negative programs and the 3-level semantics";
  let c8 =
    rules
      "fly(X) :- bird(X). -fly(X) :- ground_animal(X). \
       bird(pigeon). bird(penguin). ground_animal(penguin)."
  in
  let two_level = Ordered.Vfix.least_model (Ordered.Bridge.ground_ov c8) in
  Format.printf "  two-level: fly(penguin) = %a (nothing can be said)@."
    Interp.pp_value
    (Interp.value_lit two_level (lit "fly(penguin)"));
  let stable8 = negative_stable_models c8 in
  List.iter
    (fun s ->
      Format.printf "  3-level stable: fly(penguin) = %a, fly(pigeon) = %a@."
        Interp.pp_value
        (Interp.value_lit s (lit "fly(penguin)"))
        Interp.pp_value
        (Interp.value_lit s (lit "fly(pigeon)")))
    stable8;
  let c9 =
    rules
      "colored(X) :- color(X), -colored(Y), X != Y. \
       -colored(X) :- ugly_color(X). color(red). color(green)."
  in
  List.iter
    (fun s ->
      let chosen =
        List.filter
          (fun (l : Literal.t) ->
            l.pol && String.equal l.atom.Atom.pred "colored")
          (Interp.to_literals s)
      in
      Format.printf "  color choice: %a@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Literal.pp)
        chosen)
    (negative_stable_models c9);
  Format.printf "@.tour complete.@."
