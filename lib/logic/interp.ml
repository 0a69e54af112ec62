type value = True | False | Undefined

type t = bool Atom.Map.t

let empty = Atom.Map.empty
let cardinal = Atom.Map.cardinal

let value i a =
  match Atom.Map.find_opt a i with
  | None -> Undefined
  | Some true -> True
  | Some false -> False

let value_lit i (l : Literal.t) =
  match value i l.atom, l.pol with
  | Undefined, _ -> Undefined
  | True, pol -> if pol then True else False
  | False, pol -> if pol then False else True

let holds i l = value_lit i l = True

(* One descent: [update] finds the slot and fills it. *)
let set i a b =
  Atom.Map.update a
    (function
      | Some b' when b <> b' ->
        invalid_arg
          (Printf.sprintf "Interp.set: inconsistent assignment to %s"
             (Atom.to_string a))
      | _ -> Some b)
    i

let unset i a = Atom.Map.remove a i
let of_literals ls =
  List.fold_left (fun i (l : Literal.t) -> set i l.atom l.pol) empty ls

let to_literals i =
  Atom.Map.fold (fun a b acc -> Literal.make b a :: acc) i [] |> List.rev

let true_atoms i =
  Atom.Map.fold (fun a b acc -> if b then a :: acc else acc) i [] |> List.rev

let undefined_atoms i ~base =
  List.filter (fun a -> not (Atom.Map.mem a i)) base

let is_total i ~base = List.for_all (fun a -> Atom.Map.mem a i) base

let subset i j =
  Atom.Map.for_all
    (fun a b ->
      match Atom.Map.find_opt a j with
      | Some b' -> b = b'
      | None -> false)
    i

let equal = Atom.Map.equal Bool.equal

let union i j =
  let exception Clash in
  try
    Some
      (Atom.Map.union
         (fun _ b b' -> if b = b' then Some b else raise Clash)
         i j)
  with Clash -> None

let fold = Atom.Map.fold
let iter = Atom.Map.iter
let exists = Atom.Map.exists

let compare_value v1 v2 =
  let rank = function
    | False -> 0
    | Undefined -> 1
    | True -> 2
  in
  Int.compare (rank v1) (rank v2)

let value_conj i body =
  List.fold_left
    (fun acc l ->
      let v = value_lit i l in
      if compare_value v acc < 0 then v else acc)
    True body

let pp_value ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Undefined -> Format.pp_print_string ppf "undefined"

let to_string i =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '{';
  Term.add_list buf Literal.to_buffer (to_literals i);
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp ppf i = Format.pp_print_string ppf (to_string i)
