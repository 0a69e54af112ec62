open Logic

let comparison_preds = [ "<"; ">"; "<="; ">="; "="; "!=" ]
let is_builtin (p, arity) = arity = 2 && List.mem p comparison_preds
let is_builtin_atom (a : Atom.t) = is_builtin (a.pred, Atom.arity a)
let is_builtin_literal (l : Literal.t) = is_builtin_atom l.atom

let div_by_zero op t =
  Governor.Diag.fail
    (Governor.Diag.Eval_error
       { op;
         detail =
           Printf.sprintf "%s by zero evaluating %s"
             (if op = "/" then "division" else "modulo")
             (Term.to_string t)
       })

let rec eval_term t =
  match t with
  | Term.Var _ -> invalid_arg "Builtin.eval_term: non-ground term"
  | Term.Int _ | Term.Sym _ -> t
  | Term.App (f, args) -> (
    let args = List.map eval_term args in
    match f, args with
    | "+", [ Term.Int a; Term.Int b ] -> Term.Int (a + b)
    | "-", [ Term.Int a; Term.Int b ] -> Term.Int (a - b)
    | "*", [ Term.Int a; Term.Int b ] -> Term.Int (a * b)
    | "/", [ Term.Int _; Term.Int 0 ] -> div_by_zero "/" t
    | "mod", [ Term.Int _; Term.Int 0 ] -> div_by_zero "mod" t
    | "/", [ Term.Int a; Term.Int b ] -> Term.Int (a / b)
    | "mod", [ Term.Int a; Term.Int b ] -> Term.Int (a mod b)
    | "-", [ Term.Int a ] -> Term.Int (-a)
    | _ -> Term.App (f, args))

let eval_comparison pred l r =
  match pred, l, r with
  | "=", l, r -> Some (Term.equal l r)
  | "!=", l, r -> Some (not (Term.equal l r))
  | "<", Term.Int x, Term.Int y -> Some (x < y)
  | ">", Term.Int x, Term.Int y -> Some (x > y)
  | "<=", Term.Int x, Term.Int y -> Some (x <= y)
  | ">=", Term.Int x, Term.Int y -> Some (x >= y)
  | _ -> None

let eval_atom (a : Atom.t) =
  if not (is_builtin_atom a) then
    invalid_arg "Builtin.eval_atom: not a builtin atom";
  match List.map eval_term a.args with
  | [ l; r ] -> eval_comparison a.pred l r
  | _ -> assert false

let eval_literal (l : Literal.t) =
  Option.map (fun b -> if l.pol then b else not b) (eval_atom l.atom)
