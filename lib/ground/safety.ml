open Logic

type report = { rule : Rule.t; unbound : string list }

(* Variables of the head and of builtin body literals that appear in no
   ordinary body literal (none iff the rule is safe). *)
let unbound_vars (r : Rule.t) =
  let ordinary, builtin =
    List.partition (fun l -> not (Builtin.is_builtin_literal l)) (Rule.body r)
  in
  let bound =
    List.fold_left (fun acc l -> Literal.add_vars l acc) [] ordinary
  in
  let need =
    List.fold_left
      (fun acc l -> Literal.add_vars l acc)
      (Literal.vars (Rule.head r))
      builtin
  in
  List.filter (fun v -> not (List.mem v bound)) need

let check rules =
  List.filter_map
    (fun rule ->
      match unbound_vars rule with
      | [] -> None
      | unbound -> Some { rule; unbound })
    rules

let pp_report ppf { rule; unbound } =
  Format.fprintf ppf "unsafe rule %a: variable(s) %s bound by no body literal"
    Rule.pp rule
    (String.concat ", " unbound)
