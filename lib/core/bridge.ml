open Logic

let program_component = "main"
let cwa_component = "cwa"

let program_predicates rules =
  let sg = Herbrand.signature_of_rules rules in
  List.filter
    (fun p -> not (Ground.Builtin.is_builtin p))
    sg.Herbrand.predicates

let generic_atom (p, arity) =
  Atom.make p (List.init arity (fun i -> Term.Var (Printf.sprintf "X%d" i)))

let cwa_rules rules =
  List.map
    (fun pa -> Rule.fact (Literal.neg_atom (generic_atom pa)))
    (program_predicates rules)

let reflexive_rules rules =
  List.map
    (fun pa ->
      let a = generic_atom pa in
      Rule.make (Literal.pos a) [ Literal.pos a ])
    (program_predicates rules)

let ov rules =
  Program.make_exn
    [ (program_component, rules); (cwa_component, cwa_rules rules) ]
    [ (program_component, cwa_component) ]

let ev rules =
  Program.make_exn
    [ (program_component, rules @ reflexive_rules rules);
      (cwa_component, cwa_rules rules)
    ]
    [ (program_component, cwa_component) ]

let ground_at ?depth prog =
  Gop.ground ?depth prog (Program.component_id_exn prog program_component)

let ground_ov ?depth rules = ground_at ?depth (ov rules)
let ground_ev ?depth rules = ground_at ?depth (ev rules)
