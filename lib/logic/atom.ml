type t = { pred : string; args : Term.t list }

let make pred args = { pred; args }
let prop pred = { pred; args = [] }
let arity a = List.length a.args

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else Term.compare_lists a.args b.args

let equal a b = compare a b = 0
let hash = Hashtbl.hash
let is_ground a = List.for_all Term.is_ground a.args

let add_vars a acc =
  List.fold_left (fun acc t -> Term.add_vars t acc) acc a.args

let vars a = add_vars a []
let rename f a = { a with args = List.map (Term.rename f) a.args }

(* Comparison builtins print infix so that [X > 11] round-trips through the
   parser. *)
let infix_preds = [ "<"; ">"; "<="; ">="; "="; "!=" ]

let to_buffer buf a =
  match a.args with
  | [] -> Buffer.add_string buf a.pred
  | [ l; r ] when List.mem a.pred infix_preds ->
    Term.to_buffer buf l;
    Buffer.add_char buf ' ';
    Buffer.add_string buf a.pred;
    Buffer.add_char buf ' ';
    Term.to_buffer buf r
  | args ->
    Buffer.add_string buf a.pred;
    Buffer.add_char buf '(';
    Term.add_list buf Term.to_buffer args;
    Buffer.add_char buf ')'

let to_string a =
  let buf = Buffer.create 32 in
  to_buffer buf a;
  Buffer.contents buf

let pp ppf a = Format.pp_print_string ppf (to_string a)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
