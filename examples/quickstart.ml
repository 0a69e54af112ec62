(* Quickstart: build an ordered program through the API, compute its least
   model, inspect rule statuses and enumerate stable models.

   Run with: dune exec examples/quickstart.exe *)

open Logic

let lit s = Lang.Parser.parse_literal s
let rule s = Lang.Parser.parse_rule s

let () =
  (* An ordered program is a set of named components plus a partial order;
     [("specific", "general")] declares specific < general, so [specific]
     inherits — and may overrule — the rules of [general]. *)
  let program =
    Ordered.Program.make_exn
      [ ( "general",
          [ rule "works(X) :- employee(X).";
            (* Classical negation has no implicit closed world: state the
               default "employees are not on leave" explicitly, so that a
               leave fact in a lower component can overrule it. *)
            rule "-on_leave(X) :- employee(X).";
            rule "employee(ann).";
            rule "employee(bob)."
          ] );
        ( "specific",
          [ rule "on_leave(ann).";
            rule "-works(X) :- on_leave(X)."
          ] )
      ]
      [ ("specific", "general") ]
  in
  let viewpoint = Ordered.Program.component_id_exn program "specific" in
  let g = Ordered.Gop.ground program viewpoint in

  (* The least model: the fixpoint of the ordered immediate transformation.
     Ann's leave overrules the inherited default that employees work. *)
  let m = Ordered.Vfix.least_model g in
  Format.printf "least model: %a@." Interp.pp m;
  assert (Interp.holds m (lit "works(bob)"));
  assert (Interp.holds m (lit "-works(ann)"));

  (* Ask why. *)
  Format.printf "%a@."
    Ordered.Explain.pp
    (Ordered.Explain.explain g (lit "works(ann)"));

  (* Definition 2 statuses of every ground rule w.r.t. the model. *)
  List.iter
    (fun r -> Format.printf "%a@." Ordered.Status.pp_report r)
    (Ordered.Status.report_all g m);

  (* Model-theory: the least model is assumption-free and, here, the
     unique stable model. *)
  assert (Ordered.Model.is_model g m);
  assert (Ordered.Model.is_assumption_free g m);
  (match Ordered.Budget.value (Solve.Kernel.stable_models g) with
  | [ s ] -> assert (Interp.equal s m)
  | other -> Format.printf "unexpected: %d stable models@." (List.length other));
  Format.printf "quickstart ok@."
