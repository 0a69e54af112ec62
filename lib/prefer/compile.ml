open Logic

type t = {
  spec : Spec.t;
  program : Ordered.Program.t;
  viewpoint : Ordered.Program.component_id;
  trace : bool;
}

let where = "prefer compile"
let view_component = "#view"
let control_prefix = "ap@"

let is_control (a : Atom.t) =
  String.length a.pred >= String.length control_prefix
  && String.sub a.pred 0 (String.length control_prefix) = control_prefix

(* In trace mode every named rule [n : H :- B.] gets a companion
   [ap@n :- B, H.] in its own component: the control atom [ap@n] is
   derived exactly when some ground instance of the rule is applied
   (body satisfied and head holds), making the firing of a named rule
   observable in the model.  The control atom has no contradicting
   rules, so it never interferes with overruling or defeating. *)
let trace_rule name (r : Rule.t) =
  Rule.make
    (Literal.pos (Atom.prop (control_prefix ^ name)))
    (Rule.body r @ [ Rule.head r ])

let compile ?(trace = false) (spec : Spec.t) =
  let view = Ordered.Program.view spec.program spec.viewpoint in
  let poset = Ordered.Program.poset spec.program in
  let rules = Array.of_list view in
  let n = Array.length rules in
  if trace then
    Array.iter
      (fun (_, r) ->
        List.iter
          (fun (p, _) ->
            if
              String.length p >= String.length control_prefix
              && String.sub p 0 (String.length control_prefix)
                 = control_prefix
            then
              Ordered.Diag.invalid ~where
                (Printf.sprintf
                   "predicate %S uses the %S prefix, reserved for control \
                    atoms in trace mode"
                   p control_prefix))
          (Rule.predicates r))
      rules;
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
    List.init n (fun k ->
        let _, r = rules.(k) in
        let traced =
          if trace then
            match Rule.name r with
            | Some nm -> [ trace_rule nm r ]
            | None -> []
          else []
        in
        (comp_name k, r :: traced))
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
    viewpoint = Ordered.Program.component_id_exn program view_component;
    trace
  }

let gop ?budget ?max_instances ?depth ?extra_constants t =
  Ordered.Gop.ground ?budget ?max_instances ?depth ?extra_constants t.program
    t.viewpoint

let project m =
  Interp.fold
    (fun a b acc -> if is_control a then acc else Interp.set acc a b)
    m Interp.empty
