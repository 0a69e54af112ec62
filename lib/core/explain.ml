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
    component = Program.component_name g.Gop.program g.Gop.rule_comp.(i)
  }

(* The suppressors in [sup] from [lo] to [hi] that are not blocked,
   ascending. *)
let unblocked (g : Gop.t) v lo hi =
  List.filter
    (fun j -> not (Status.blocked g v j))
    (List.init (hi - lo) (fun k -> g.Gop.sup.(lo + k)))

let obstacles_of (g : Gop.t) v i =
  let body_lits = Rule.body (Gop.rule_src g i) in
  let blocked_lit =
    List.find_opt (fun l -> Gop.Values.value_lit g v l = Interp.False) body_lits
  in
  let unmet = List.filter (fun l -> Gop.Values.value_lit g v l <> Interp.True) body_lits in
  let over =
    List.map
      (fun j -> Overruled_by (support_of g j))
      (unblocked g v g.Gop.sup_off.(i) g.Gop.def_off.(i))
  in
  let defs =
    List.map
      (fun j -> Defeated_by (support_of g j))
      (unblocked g v g.Gop.def_off.(i) g.Gop.sup_off.(i + 1))
  in
  let applicability =
    match blocked_lit with
    | Some l -> [ Blocked l ]
    | None -> if unmet = [] then [] else [ Not_applicable unmet ]
  in
  applicability @ over @ defs

(* The first rule with head atom [a], in {!Gop.iter_about}'s order, that
   satisfies [p]. *)
let first_about g a p =
  let found = ref None in
  ignore
    (Gop.exists_about g a (fun i ->
         p i
         && begin
           found := Some i;
           true
         end)
      : bool);
  !found

let explain (g : Gop.t) (l : Literal.t) =
  let v = Vfix.lfp g in
  match Gop.Values.value_lit g v l with
  | Interp.True ->
    (* Find an applied, unsuppressed rule with this head. *)
    let a = Option.get (Gop.atom_id g l.atom) in
    let firing =
      first_about g a (fun i ->
          g.Gop.head.(i) = Gop.code a l.pol
          && Status.applied g v i
          && (not (Status.overruled g v i))
          && not (Status.defeated g v i))
    in
    (match firing with
    | Some i ->
      Holds
        { literal = l;
          via = support_of g i;
          body = Rule.body (Gop.rule_src g i)
        }
    | None ->
      (* The least model only contains derived literals, so this cannot
         happen; report as unsupported defensively. *)
      Unsupported { literal = l; candidates = [] })
  | Interp.False -> (
    let a = Option.get (Gop.atom_id g l.atom) in
    let firing =
      first_about g a (fun i ->
          g.Gop.head.(i) = Gop.code a (not l.pol) && Status.applied g v i)
    in
    match firing with
    | Some i -> Complement_holds { literal = l; via = support_of g i }
    | None -> Unsupported { literal = l; candidates = [] })
  | Interp.Undefined ->
    let candidates =
      match Gop.atom_id g l.atom with
      | None -> []
      | Some a ->
        let acc = ref [] in
        Gop.iter_about g a (fun i ->
            if g.Gop.head.(i) = Gop.code a l.pol then
              acc :=
                { rule = Gop.rule_src g i;
                  component =
                    Program.component_name g.Gop.program g.Gop.rule_comp.(i);
                  obstacles = obstacles_of g v i
                }
                :: !acc);
        List.rev !acc
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
