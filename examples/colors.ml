(* The paper's Example 9: negated rule heads as exceptions, and stable
   models as alternative choices.

   The negative program

     colored(X) :- color(X), -colored(Y), X != Y.
     -colored(X) :- ugly_color(X).

   under the 3-level semantics of Section 4 reads: a color can be chosen
   when some other color is rejected, and ugly colors are always rejected.
   With only non-ugly colors each stable model selects exactly one of
   them; an ugly color, being rejected unconditionally, supports the
   choice of every non-ugly color at once — a subtlety of the formal
   semantics that the paper's informal gloss ("select exactly one")
   glosses over.  This example shows both situations.

   Run with: dune exec examples/colors.exe *)

open Logic

let base = {|
  colored(X) :- color(X), -colored(Y), X != Y.
  -colored(X) :- ugly_color(X).
|}

let run title facts =
  let rules = Lang.Parser.parse_rules (base ^ facts) in
  let stables =
    Ordered.Budget.value
      (Solve.Kernel.stable_models (Ordered.Negative.ground_3v rules))
  in
  Format.printf "--- %s ---@." title;
  Format.printf "%d stable model(s)@." (List.length stables);
  List.iter
    (fun m ->
      let chosen =
        List.filter
          (fun (l : Literal.t) ->
            l.pol && String.equal l.atom.Atom.pred "colored")
          (Interp.to_literals m)
      in
      Format.printf "  choice: %a@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Literal.pp)
        chosen)
    stables;
  let least = Ordered.Negative.least_model rules in
  let rejected =
    List.filter
      (fun (l : Literal.t) ->
        (not l.pol) && String.equal l.atom.Atom.pred "colored")
      (Interp.to_literals least)
  in
  Format.printf "  always rejected: %a@.@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Literal.pp)
    rejected

let () =
  (* Pure choice: each stable model picks exactly one color. *)
  run "two non-ugly colors" "color(red). color(green).";
  (* An ugly color is rejected by the exception rule, and that rejection
     supports choosing every remaining color simultaneously. *)
  run "two non-ugly colors and an ugly one"
    "color(red). color(green). color(brown). ugly_color(brown)."
