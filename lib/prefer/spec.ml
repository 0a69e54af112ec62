open Logic

type t = {
  program : Ordered.Program.t;
  viewpoint : Ordered.Program.component_id;
  prefs : (string * string) list;
}

let where = "preferences"

(* Cycle check over an edge relation on [0 .. n-1]: depth-first search
   with an explicit on-stack marking; on a back edge the portion of the
   stack from the revisited node is the cycle. *)
let find_cycle ~n edges_of =
  let color = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let exception Cycle of int list in
  let rec visit path v =
    match color.(v) with
    | 1 ->
      let rec cut = function
        | [] -> []
        | u :: rest -> if u = v then [ u ] else u :: cut rest
      in
      raise (Cycle (v :: List.rev (cut path)))
    | 2 -> ()
    | _ ->
      color.(v) <- 1;
      List.iter (visit (v :: path)) (edges_of v);
      color.(v) <- 2
  in
  try
    for v = 0 to n - 1 do
      visit [] v
    done;
    None
  with Cycle c -> Some c

(* A quick structural check on the pairs alone, for callers that accept
   preferences before the named rules exist (the KB mutation path): no
   self-preference and no cycle among the declared pairs themselves. *)
let check_pairs pairs =
  List.iter
    (fun (a, b) ->
      if a = b then
        Ordered.Diag.fail (Ordered.Diag.Preference_cycle { cycle = [ a; a ] }))
    pairs;
  let names =
    List.sort_uniq String.compare
      (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
  in
  let id n =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if x = n then i else go (i + 1) rest
    in
    go 0 names
  in
  let names_arr = Array.of_list names in
  let edges =
    List.map (fun (a, b) -> (id a, id b)) pairs
  in
  match
    find_cycle ~n:(Array.length names_arr) (fun v ->
        List.filter_map (fun (a, b) -> if a = v then Some b else None) edges)
  with
  | None -> ()
  | Some c ->
    Ordered.Diag.fail
      (Ordered.Diag.Preference_cycle { cycle = List.map (fun i -> names_arr.(i)) c })

let make program viewpoint prefs =
  let view = Ordered.Program.view program viewpoint in
  let rules = Array.of_list view in
  let n = Array.length rules in
  (* rule names must identify a unique rule of the view *)
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun i (_, r) ->
      match Rule.name r with
      | None -> ()
      | Some nm ->
        if Hashtbl.mem by_name nm then
          Ordered.Diag.invalid ~where
            (Printf.sprintf
               "rule name %S names more than one rule in this viewpoint" nm)
        else Hashtbl.add by_name nm i)
    rules;
  List.iter
    (fun (a, b) ->
      if a = b then
        Ordered.Diag.fail (Ordered.Diag.Preference_cycle { cycle = [ a; a ] });
      List.iter
        (fun nm ->
          if not (Hashtbl.mem by_name nm) then
            Ordered.Diag.invalid ~where
              (Printf.sprintf "prefer names unknown rule %S (no rule \
                               [%s : ...] in this viewpoint)" nm nm))
        [ a; b ])
    prefs;
  (* the combined rule order — component order between the rules'
     components plus the prefer pairs — must stay a strict poset *)
  let poset = Ordered.Program.poset program in
  let label i =
    let c, r = rules.(i) in
    match Rule.name r with
    | Some nm -> nm
    | None ->
      Printf.sprintf "<unnamed rule in %s>"
        (Ordered.Program.component_name program c)
  in
  let pref_edges =
    List.map (fun (a, b) -> (Hashtbl.find by_name a, Hashtbl.find by_name b)) prefs
  in
  let edges_of i =
    let ci = fst rules.(i) in
    let acc = ref [] in
    for j = n - 1 downto 0 do
      if Ordered.Poset.lt poset ci (fst rules.(j)) then acc := j :: !acc
    done;
    List.iter (fun (a, b) -> if a = i then acc := b :: !acc) pref_edges;
    !acc
  in
  (match find_cycle ~n edges_of with
  | None -> ()
  | Some c ->
    Ordered.Diag.fail (Ordered.Diag.Preference_cycle { cycle = List.map label c }));
  { program; viewpoint; prefs }
