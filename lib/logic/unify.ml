let rec occurs x s = function
  | Term.Var y -> (
    if String.equal x y then true
    else
      match Subst.find y s with
      | None -> false
      | Some t -> occurs x s t)
  | Term.Int _ | Term.Sym _ -> false
  | Term.App (_, args) -> List.exists (occurs x s) args

let rec unify_terms s t1 t2 =
  let t1 = Subst.apply_term s t1 and t2 = Subst.apply_term s t2 in
  match t1, t2 with
  | Term.Var x, Term.Var y when String.equal x y -> Some s
  | Term.Var x, t | t, Term.Var x ->
    if occurs x s t then None else Some (Subst.bind x t s)
  | Term.Int a, Term.Int b -> if a = b then Some s else None
  | Term.Sym a, Term.Sym b -> if String.equal a b then Some s else None
  | Term.App (f, args1), Term.App (g, args2)
    when String.equal f g && List.length args1 = List.length args2 ->
    unify_lists s args1 args2
  | _ -> None

and unify_lists s l1 l2 =
  match l1, l2 with
  | [], [] -> Some s
  | x :: xs, y :: ys -> (
    match unify_terms s x y with
    | None -> None
    | Some s -> unify_lists s xs ys)
  | _ -> None

let atom ?(init = Subst.empty) (a : Atom.t) (b : Atom.t) =
  if String.equal a.pred b.pred && List.length a.args = List.length b.args
  then unify_lists init a.args b.args
  else None

let rec match_terms s pat t =
  match pat, t with
  | Term.Var x, _ -> (
    match Subst.find x s with
    | None -> Some (Subst.bind x t s)
    | Some t' -> if Term.equal t t' then Some s else None)
  | Term.Int a, Term.Int b -> if a = b then Some s else None
  | Term.Sym a, Term.Sym b -> if String.equal a b then Some s else None
  | Term.App (f, args1), Term.App (g, args2)
    when String.equal f g && List.length args1 = List.length args2 ->
    match_lists s args1 args2
  | _ -> None

and match_lists s l1 l2 =
  match l1, l2 with
  | [], [] -> Some s
  | x :: xs, y :: ys -> (
    match match_terms s x y with
    | None -> None
    | Some s -> match_lists s xs ys)
  | _ -> None

let match_atom ?(init = Subst.empty) (pat : Atom.t) (a : Atom.t) =
  if String.equal pat.pred a.pred && List.length pat.args = List.length a.args
  then match_lists init pat.args a.args
  else None

let match_literal ?init (pat : Literal.t) (l : Literal.t) =
  if pat.pol = l.pol then match_atom ?init pat.atom l.atom else None
