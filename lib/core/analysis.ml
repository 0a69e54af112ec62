open Logic

type resolution =
  | Overruling of { winner : Program.component_id }
  | Defeating

type conflict = {
  rule_a : Rule.t;
  comp_a : Program.component_id;
  rule_b : Rule.t;
  comp_b : Program.component_id;
  resolution : resolution;
}

(* Rename one rule's variables apart before unifying heads. *)
let heads_conflict (ra : Rule.t) (rb : Rule.t) =
  let rb = Rule.rename (fun v -> v ^ "'") rb in
  let ha = Rule.head ra and hb = Rule.head rb in
  Literal.is_positive ha <> Literal.is_positive hb
  && Unify.atom ha.Literal.atom hb.Literal.atom <> None

let conflicts prog comp =
  let poset = Program.poset prog in
  let view = Array.of_list (Program.view prog comp) in
  let acc = ref [] in
  for i = 0 to Array.length view - 1 do
    for j = i + 1 to Array.length view - 1 do
      let ca, ra = view.(i) and cb, rb = view.(j) in
      if heads_conflict ra rb then begin
        let resolution =
          if Poset.lt poset ca cb then Overruling { winner = ca }
          else if Poset.lt poset cb ca then Overruling { winner = cb }
          else Defeating
        in
        acc :=
          { rule_a = ra; comp_a = ca; rule_b = rb; comp_b = cb; resolution }
          :: !acc
      end
    done
  done;
  List.rev !acc

let pp_conflict prog ppf c =
  let name = Program.component_name prog in
  match c.resolution with
  | Overruling { winner } ->
    let w_rule, w_comp, l_rule, l_comp =
      if winner = c.comp_a then (c.rule_a, c.comp_a, c.rule_b, c.comp_b)
      else (c.rule_b, c.comp_b, c.rule_a, c.comp_a)
    in
    Format.fprintf ppf "%a [%s] can overrule %a [%s]" Rule.pp w_rule
      (name w_comp) Rule.pp l_rule (name l_comp)
  | Defeating ->
    Format.fprintf ppf "%a [%s] and %a [%s] can defeat each other" Rule.pp
      c.rule_a (name c.comp_a) Rule.pp c.rule_b (name c.comp_b)
