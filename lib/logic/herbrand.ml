type signature = {
  constants : Term.t list;
  functions : (string * int) list;
  predicates : (string * int) list;
}

(* The signature of everything [iter] hands to its callback; its
   predicates only if [predicates]. *)
let signature ~predicates:with_predicates iter =
  let constants = ref Term.Set.empty in
  let functions = Hashtbl.create 16 in
  let predicates = Hashtbl.create 16 in
  let rec scan_term = function
    | Term.Var _ -> ()
    | (Term.Int _ | Term.Sym _) as c -> constants := Term.Set.add c !constants
    | Term.App (f, args) ->
      Hashtbl.replace functions (f, List.length args) ();
      List.iter scan_term args
  in
  iter (fun (a : Atom.t) ->
      if with_predicates then
        Hashtbl.replace predicates (a.pred, Atom.arity a) ();
      List.iter scan_term a.args);
  let constants =
    if Term.Set.is_empty !constants then [ Term.Sym "a0" ]
    else Term.Set.elements !constants
  in
  let to_list tbl =
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
  in
  { constants; functions = to_list functions; predicates = to_list predicates }

let signature_of_rules rules =
  signature ~predicates:true (fun scan ->
      List.iter
        (fun (r : Rule.t) ->
          scan r.head.atom;
          List.iter (fun (l : Literal.t) -> scan l.atom) r.body)
        rules)

let term_signature iter = signature ~predicates:false iter

(* All tuples of length [n] over [elems], in lexicographic order. *)
let rec tuples elems n =
  if n = 0 then [ [] ]
  else
    let rest = tuples elems (n - 1) in
    List.concat_map (fun e -> List.map (fun t -> e :: t) rest) elems

let universe ?(depth = 0) sg =
  let rec grow level terms =
    if level >= depth || sg.functions = [] then terms
    else
      let next =
        List.concat_map
          (fun (f, arity) ->
            List.map (fun args -> Term.App (f, args)) (tuples terms arity))
          sg.functions
      in
      grow (level + 1)
        (Term.Set.elements (Term.Set.of_list (terms @ next)))
  in
  grow 0 sg.constants

let instantiations univ vars =
  let rec go vars s () =
    match vars with
    | [] -> Seq.Cons (s, Seq.empty)
    | v :: rest ->
      (List.to_seq univ
      |> Seq.concat_map (fun t -> go rest (Subst.bind v t s)))
        ()
  in
  go vars Subst.empty
