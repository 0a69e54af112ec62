type t = { name : string option; head : Literal.t; body : Literal.t list }

let make head body = { name = None; head; body }
let fact head = { name = None; head; body = [] }
let with_name n r = { r with name = Some n }
let name r = r.name
let head r = r.head
let body r = r.body
let is_seminegative r = Literal.is_positive r.head

let is_positive r =
  Literal.is_positive r.head && List.for_all Literal.is_positive r.body

let is_ground r = Literal.is_ground r.head && List.for_all Literal.is_ground r.body

let vars r =
  List.fold_left
    (fun acc l -> Literal.add_vars l acc)
    (Literal.vars r.head) r.body

let rename f r =
  { r with
    head = Literal.rename f r.head;
    body = List.map (Literal.rename f) r.body
  }

let apply s r =
  { r with
    head = Subst.apply_literal s r.head;
    body = List.map (Subst.apply_literal s) r.body
  }

let compare r1 r2 =
  let c = Option.compare String.compare r1.name r2.name in
  if c <> 0 then c
  else
    let c = Literal.compare r1.head r2.head in
    if c <> 0 then c else List.compare Literal.compare r1.body r2.body

let equal r1 r2 = compare r1 r2 = 0

let predicates r =
  let add acc (l : Literal.t) =
    let key = (l.atom.pred, Atom.arity l.atom) in
    if List.mem key acc then acc else key :: acc
  in
  List.rev (List.fold_left add (add [] r.head) r.body)

let to_string r =
  let buf = Buffer.create 64 in
  (match r.name with
  | Some n ->
    Buffer.add_string buf n;
    Buffer.add_string buf " : "
  | None -> ());
  Literal.to_buffer buf r.head;
  if r.body <> [] then begin
    Buffer.add_string buf " :- ";
    Term.add_list buf Literal.to_buffer r.body
  end;
  Buffer.add_char buf '.';
  Buffer.contents buf

let pp ppf r = Format.pp_print_string ppf (to_string r)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
