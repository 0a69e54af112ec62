open Logic

type t = {
  spec : Spec.t;
  program : Ordered.Program.t;
  viewpoint : Ordered.Program.component_id;
}

let view_component = "#view"

let compile (spec : Spec.t) =
  let view = Ordered.Program.view spec.program spec.viewpoint in
  let poset = Ordered.Program.poset spec.program in
  let rules = Array.of_list view in
  let n = Array.length rules in
  (* One fresh component per source rule of the view, named after its
     original component, plus an empty bottom component [#view] that
     extends them all: viewing the compiled program from [#view] sees
     exactly the original view, with the rule order reified as the
     component order. *)
  let comp_name k =
    let c, _ = rules.(k) in
    Printf.sprintf "%s#%d" (Ordered.Program.component_name spec.program c) k
  in
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun k (_, r) ->
      match Rule.name r with
      | Some nm -> Hashtbl.replace by_name nm k
      | None -> ())
    rules;
  let comps =
    List.init n (fun k -> (comp_name k, [ snd rules.(k) ]))
    @ [ (view_component, []) ]
  in
  let pairs =
    List.init n (fun k -> (view_component, comp_name k))
    @ List.concat
        (List.init n (fun k ->
             List.filter_map
               (fun l ->
                 if Ordered.Poset.lt poset (fst rules.(k)) (fst rules.(l))
                 then Some (comp_name k, comp_name l)
                 else None)
               (List.init n Fun.id)))
    @ List.map
        (fun (a, b) ->
          (comp_name (Hashtbl.find by_name a),
           comp_name (Hashtbl.find by_name b)))
        spec.Spec.prefs
  in
  let program = Ordered.Program.make_exn comps pairs in
  { spec;
    program;
    viewpoint = Ordered.Program.component_id_exn program view_component
  }

let gop ?budget ?max_instances ?depth t =
  Ordered.Gop.ground ?budget ?max_instances ?depth t.program t.viewpoint
