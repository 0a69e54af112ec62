open Logic

type rule = { head : int; pos : int array; neg : int array }

type t = {
  atoms : Atom.t array;
  ids : int Atom.Tbl.t;
  rules : rule array;
  by_pos : int list array;
  by_neg : int list array;
  by_head : int list array;
}

let of_rules ?(budget = Governor.Budget.unlimited) src =
  let ids = Atom.Tbl.create 256 in
  let atoms = ref [] in
  let n = ref 0 in
  let intern a =
    match Atom.Tbl.find_opt ids a with
    | Some i -> i
    | None ->
      let i = !n in
      Atom.Tbl.add ids a i;
      atoms := a :: !atoms;
      incr n;
      i
  in
  let rules =
    List.map
      (fun (r : Rule.t) ->
        Governor.Budget.tick budget;
        if not (Rule.is_ground r) then
          invalid_arg "Nprog.of_rules: non-ground rule";
        if Literal.is_negative (Rule.head r) then
          invalid_arg "Nprog.of_rules: negative head in a normal program";
        let head = intern (Rule.head r).atom in
        let pos, neg = List.partition Literal.is_positive (Rule.body r) in
        { head;
          pos = Array.of_list (List.map (fun (l : Literal.t) -> intern l.atom) pos);
          neg = Array.of_list (List.map (fun (l : Literal.t) -> intern l.atom) neg)
        })
      src
    |> Array.of_list
  in
  let atoms = Array.of_list (List.rev !atoms) in
  let by_pos = Array.make (Array.length atoms) [] in
  let by_neg = Array.make (Array.length atoms) [] in
  let by_head = Array.make (Array.length atoms) [] in
  Array.iteri
    (fun i r ->
      by_head.(r.head) <- i :: by_head.(r.head);
      Array.iter (fun a -> by_pos.(a) <- i :: by_pos.(a)) r.pos;
      Array.iter (fun a -> by_neg.(a) <- i :: by_neg.(a)) r.neg)
    rules;
  { atoms; ids; rules; by_pos; by_neg; by_head }

let n_atoms p = Array.length p.atoms
let atom_id p a = Atom.Tbl.find_opt p.ids a

let set_of_ids p ids =
  List.fold_left (fun s i -> Atom.Set.add p.atoms.(i) s) Atom.Set.empty ids

let ids_of_mask mask =
  let acc = ref [] in
  for i = Array.length mask - 1 downto 0 do
    if mask.(i) then acc := i :: !acc
  done;
  !acc

let decode_mask p mask = set_of_ids p (ids_of_mask mask)
