open Logic
module Budget = Governor.Budget

type t = {
  rules : Rule.t list;
  universe : Term.t list;
  active_base : Atom.t list;
  full_base : Atom.t list Lazy.t;
}

let normalise_atom (a : Atom.t) : Atom.t =
  { a with args = List.map Builtin.eval_term a.args }

let normalise_literal (l : Literal.t) : Literal.t =
  { l with atom = normalise_atom l.atom }

let finalize_instance (r : Rule.t) : Rule.t option =
  if not (Rule.is_ground r) then
    invalid_arg "Grounder.finalize_instance: rule is not ground";
  if Builtin.is_builtin_literal (Rule.head r) then
    invalid_arg "Grounder.finalize_instance: builtin predicate in rule head";
  let exception Dead in
  try
    let body =
      List.filter_map
        (fun l ->
          if Builtin.is_builtin_literal l then
            match Builtin.eval_literal l with
            | Some true -> None
            | Some false | None -> raise Dead
          else Some (normalise_literal l))
        (Rule.body r)
    in
    let inst = Rule.make (normalise_literal (Rule.head r)) body in
    Some
      (match Rule.name r with
      | Some n -> Rule.with_name n inst
      | None -> inst)
  with Dead -> None

let ground_rule_instances ?(budget = Budget.unlimited) ~universe r =
  Herbrand.instantiations universe (Rule.vars r)
  |> Seq.filter_map (fun s ->
         Budget.tick budget;
         finalize_instance (Rule.apply s r))
  |> List.of_seq

let collect_active rules =
  let acc = ref Atom.Set.empty in
  List.iter
    (fun r ->
      acc := Atom.Set.add (Rule.head r).Literal.atom !acc;
      List.iter (fun (l : Literal.t) -> acc := Atom.Set.add l.atom !acc) (Rule.body r))
    rules;
  Atom.Set.elements !acc

let setup ?(depth = 0) ?(extra_constants = []) rules =
  let sg = Herbrand.signature_of_rules rules in
  let sg =
    { sg with
      constants =
        Term.Set.elements
          (Term.Set.union
             (Term.Set.of_list sg.constants)
             (Term.Set.of_list extra_constants))
    }
  in
  let universe = Herbrand.universe ~depth sg in
  let full_base = lazy (Herbrand.base ~depth ~skip:Builtin.is_builtin sg) in
  (universe, full_base)

let naive ?(budget = Budget.unlimited) ?depth ?extra_constants rules =
  let universe, full_base = setup ?depth ?extra_constants rules in
  let ground =
    List.concat_map (ground_rule_instances ~budget ~universe) rules
    |> Rule.Set.of_list |> Rule.Set.elements
  in
  { rules = ground; universe; active_base = collect_active ground; full_base }
