type t =
  | Var of string
  | Int of int
  | Sym of string
  | App of string * t list

let rec compare t1 t2 =
  match t1, t2 with
  | Var a, Var b -> String.compare a b
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Int a, Int b -> Int.compare a b
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Sym a, Sym b -> String.compare a b
  | Sym _, _ -> -1
  | _, Sym _ -> 1
  | App (f, args1), App (g, args2) ->
    let c = String.compare f g in
    if c <> 0 then c else compare_lists args1 args2

and compare_lists l1 l2 =
  match l1, l2 with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c <> 0 then c else compare_lists xs ys

let equal t1 t2 = compare t1 t2 = 0

let hash = Hashtbl.hash

let rec is_ground = function
  | Var _ -> false
  | Int _ | Sym _ -> true
  | App (_, args) -> List.for_all is_ground args

let rec add_vars t acc =
  match t with
  | Var v -> if List.mem v acc then acc else acc @ [ v ]
  | Int _ | Sym _ -> acc
  | App (_, args) -> List.fold_left (fun acc t -> add_vars t acc) acc args

let vars t = add_vars t []

let rec size = function
  | Var _ | Int _ | Sym _ -> 1
  | App (_, args) -> List.fold_left (fun n t -> n + size t) 1 args

let rec depth = function
  | Var _ | Int _ | Sym _ -> 0
  | App (_, args) -> 1 + List.fold_left (fun d t -> max d (depth t)) 0 args

let rec rename f = function
  | Var v -> Var (f v)
  | (Int _ | Sym _) as t -> t
  | App (g, args) -> App (g, List.map (rename f) args)

(* Arithmetic prints infix, with parentheses when a lower-precedence
   operator appears under a higher-precedence context, so that printed
   terms re-parse to themselves. *)
let level_of = function
  | "+" | "-" -> 1
  | "*" | "/" | "mod" -> 2
  | _ -> 3

let add_list buf add = function
  | [] -> ()
  | x :: xs ->
    add buf x;
    List.iter
      (fun x ->
        Buffer.add_string buf ", ";
        add buf x)
      xs

let rec add_prec buf level = function
  | Var s | Sym s -> Buffer.add_string buf s
  | Int n ->
    if n < 0 && level > 0 then Buffer.add_char buf '(';
    Buffer.add_string buf (string_of_int n);
    if n < 0 && level > 0 then Buffer.add_char buf ')'
  | App (("+" | "-" | "*" | "/" | "mod") as op, [ l; r ]) ->
    let my = level_of op in
    if my < level then Buffer.add_char buf '(';
    add_prec buf my l;
    Buffer.add_char buf ' ';
    Buffer.add_string buf op;
    Buffer.add_char buf ' ';
    add_prec buf (my + 1) r;
    if my < level then Buffer.add_char buf ')'
  | App ("-", [ t ]) ->
    Buffer.add_char buf '-';
    add_prec buf 3 t
  | App (f, args) ->
    Buffer.add_string buf f;
    Buffer.add_char buf '(';
    add_list buf (fun buf t -> add_prec buf 0 t) args;
    Buffer.add_char buf ')'

let to_buffer buf t = add_prec buf 0 t

let to_string t =
  let buf = Buffer.create 16 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
