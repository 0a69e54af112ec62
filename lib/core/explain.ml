open Logic

type support = { rule : Rule.t; component : string }

type obstacle =
  | Not_applicable of Literal.t list
  | Blocked of Literal.t
  | Overruled_by of support
  | Defeated_by of support

type candidate = {
  rule : Rule.t;
  component : string;
  obstacles : obstacle list;
}

type t =
  | Holds of { literal : Literal.t; via : support; body : Literal.t list }
  | Complement_holds of { literal : Literal.t; via : support }
  | Unsupported of { literal : Literal.t; candidates : candidate list }

let support_of (g : Gop.t) i =
  { rule = Gop.rule_src g i;
    component = Program.component_name g.Gop.program g.Gop.rules.(i).comp
  }

let obstacles_of (g : Gop.t) v i =
  let r = g.Gop.rules.(i) in
  let body_lits =
    Array.to_list (Array.map (fun (a, pol) -> Literal.make pol g.Gop.atoms.(a)) r.body)
  in
  let blocked_lit =
    List.find_opt (fun l -> Gop.Values.value_lit g v l = Interp.False) body_lits
  in
  let unmet = List.filter (fun l -> Gop.Values.value_lit g v l <> Interp.True) body_lits in
  let over =
    List.filter_map
      (fun j ->
        if not (Status.blocked g v j) then Some (Overruled_by (support_of g j))
        else None)
      g.Gop.overrulers.(i)
  in
  let defs =
    List.filter_map
      (fun j ->
        if not (Status.blocked g v j) then Some (Defeated_by (support_of g j))
        else None)
      g.Gop.defeaters.(i)
  in
  let applicability =
    match blocked_lit with
    | Some l -> [ Blocked l ]
    | None -> if unmet = [] then [] else [ Not_applicable unmet ]
  in
  applicability @ over @ defs

let explain (g : Gop.t) (l : Literal.t) =
  let v = Vfix.lfp g in
  match Gop.Values.value_lit g v l with
  | Interp.True ->
    (* Find an applied, unsuppressed rule with this head. *)
    let a = Option.get (Gop.atom_id g l.atom) in
    let firing =
      List.find_opt
        (fun i ->
          g.Gop.rules.(i).head_pol = l.pol
          && Status.applied g v i
          && (not (Status.overruled g v i))
          && not (Status.defeated g v i))
        g.Gop.by_head.(a)
    in
    (match firing with
    | Some i ->
      Holds
        { literal = l;
          via = support_of g i;
          body =
            Array.to_list
              (Array.map
                 (fun (b, pol) -> Literal.make pol g.Gop.atoms.(b))
                 g.Gop.rules.(i).body)
        }
    | None ->
      (* The least model only contains derived literals, so this cannot
         happen; report as unsupported defensively. *)
      Unsupported { literal = l; candidates = [] })
  | Interp.False -> (
    let a = Option.get (Gop.atom_id g l.atom) in
    let firing =
      List.find_opt
        (fun i ->
          g.Gop.rules.(i).head_pol = not l.pol && Status.applied g v i)
        g.Gop.by_head.(a)
    in
    match firing with
    | Some i -> Complement_holds { literal = l; via = support_of g i }
    | None -> Unsupported { literal = l; candidates = [] })
  | Interp.Undefined ->
    let candidates =
      match Gop.atom_id g l.atom with
      | None -> []
      | Some a ->
        List.filter_map
          (fun i ->
            if g.Gop.rules.(i).head_pol = l.pol then
              Some
                { rule = Gop.rule_src g i;
                  component =
                    Program.component_name g.Gop.program g.Gop.rules.(i).comp;
                  obstacles = obstacles_of g v i
                }
            else None)
          g.Gop.by_head.(a)
    in
    Unsupported { literal = l; candidates }

let pp_support ppf (s : support) =
  Format.fprintf ppf "%a [component %s]" Rule.pp s.rule s.component

let pp_obstacle ppf = function
  | Not_applicable lits ->
    Format.fprintf ppf "not applicable (unmet: %a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Literal.pp)
      lits
  | Blocked l -> Format.fprintf ppf "blocked (complement of %a holds)" Literal.pp l
  | Overruled_by s -> Format.fprintf ppf "overruled by %a" pp_support s
  | Defeated_by s -> Format.fprintf ppf "defeated by %a" pp_support s

let pp ppf = function
  | Holds { literal; via; body } ->
    Format.fprintf ppf "@[<v2>%a holds: derived by %a" Literal.pp literal
      pp_support via;
    if body <> [] then
      Format.fprintf ppf "@,from %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Literal.pp)
        body;
    Format.fprintf ppf "@]"
  | Complement_holds { literal; via } ->
    Format.fprintf ppf "%a does not hold: the complement was derived by %a"
      Literal.pp literal pp_support via
  | Unsupported { literal; candidates = [] } ->
    Format.fprintf ppf "%a is undefined: no rule can derive it" Literal.pp
      literal
  | Unsupported { literal; candidates } ->
    Format.fprintf ppf "@[<v2>%a is undefined:" Literal.pp literal;
    List.iter
      (fun c ->
        Format.fprintf ppf "@,@[<v2>rule %a [component %s]:" Rule.pp c.rule
          c.component;
        List.iter (fun o -> Format.fprintf ppf "@,- %a" pp_obstacle o) c.obstacles;
        Format.fprintf ppf "@]")
      candidates;
    Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
