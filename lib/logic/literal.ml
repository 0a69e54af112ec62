type t = { pol : bool; atom : Atom.t }

let pos atom = { pol = true; atom }
let neg_atom atom = { pol = false; atom }
let make pol atom = { pol; atom }
let neg l = { l with pol = not l.pol }
let is_positive l = l.pol
let is_negative l = not l.pol

let compare a b =
  let c = Atom.compare a.atom b.atom in
  if c <> 0 then c else Bool.compare a.pol b.pol

let equal a b = compare a b = 0
let hash = Hashtbl.hash
let is_ground l = Atom.is_ground l.atom
let vars l = Atom.vars l.atom
let add_vars l acc = Atom.add_vars l.atom acc
let rename f l = { l with atom = Atom.rename f l.atom }

let to_buffer buf l =
  if not l.pol then Buffer.add_char buf '-';
  Atom.to_buffer buf l.atom

let to_string l =
  let buf = Buffer.create 32 in
  to_buffer buf l;
  Buffer.contents buf

let pp ppf l = Format.pp_print_string ppf (to_string l)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)

module Map = Map.Make (Ord)
