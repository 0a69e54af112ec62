(* Rule preferences, end to end: named rules, a prefer declaration and
   the compiled translation.

   A default (birds fly) and an exception (penguins don't) living in the
   *same* component defeat each other, so the penguin's flying ability
   is undefined.  Declaring [prefer nf > f] resolves the conflict
   without moving any rule: the compilation gives every rule of the view
   its own fresh component, reifies the preference as component order,
   and the ordinary stable-model search does the rest.

   Run with: dune exec examples/preferences.exe *)

let source = {|
  b  : bird(tweety).
  p  : penguin(tweety).
  f  : fly(X) :- bird(X).
  nf : -fly(X) :- penguin(X).
  prefer nf > f.
|}

let print_models label models =
  Format.printf "%s: %d model(s)@." label (List.length models);
  List.iter (fun m -> Format.printf "  %a@." Logic.Interp.pp m) models

let () =
  let ast = Lang.Parser.parse_file source in
  let program =
    match Ordered.Program.of_ast ast with
    | Ok p -> p
    | Error e -> failwith e
  in
  let prefs = Lang.Ast.prefer_pairs ast in
  let main = Ordered.Program.component_id_exn program "main" in

  (* Without the preference the contradicting pair defeats itself. *)
  let g = Ordered.Gop.ground program main in
  print_models "no preference"
    (Ordered.Budget.value (Solve.Kernel.stable_models g));

  (* The compiled route: translate, ground, enumerate — the solver is
     unchanged, the preference lives entirely in the component order. *)
  let spec = Prefer.Spec.make program main prefs in
  let compiled = Prefer.Compile.gop (Prefer.Compile.compile spec) in
  print_models "prefer nf > f (compiled)"
    (Ordered.Budget.value (Solve.Kernel.stable_models compiled));

  (* The combined rule order must stay a strict partial order: closing
     a cycle is a typed diagnostic, not a silent misbehaviour. *)
  match Prefer.Spec.make program main (("f", "nf") :: prefs) with
  | _ -> assert false
  | exception Ordered.Diag.Error e ->
    Format.printf "cycle refused: %s@." (Ordered.Diag.to_string e)
