module M = Map.Make (String)

type t = Term.t M.t

let empty = M.empty
let singleton x t = M.singleton x t

let bind x t s =
  match M.find_opt x s with
  | None -> M.add x t s
  | Some t' ->
    if Term.equal t t' then s
    else invalid_arg (Printf.sprintf "Subst.bind: %s already bound" x)

let find x s = M.find_opt x s
let of_list l = List.fold_left (fun s (x, t) -> bind x t s) empty l
(* [busy] guards against self-referential bindings (e.g. X -> f(X), which
   one-way matching can produce when pattern and subject share variable
   names): a variable already being expanded is left as itself. *)
let rec apply busy s = function
  | Term.Var x as t -> (
    if List.mem x busy then t
    else
      match M.find_opt x s with
      | None -> t
      | Some t' -> if Term.equal t t' then t' else apply (x :: busy) s t')
  | (Term.Int _ | Term.Sym _) as t -> t
  | Term.App (f, args) -> Term.App (f, List.map (apply busy s) args)

let apply_term s t = apply [] s t

let apply_atom s (a : Atom.t) : Atom.t =
  { a with args = List.map (apply_term s) a.args }

let apply_literal s (l : Literal.t) : Literal.t =
  { l with atom = apply_atom s l.atom }
