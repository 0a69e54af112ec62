open Logic

let atom_space ?(base = `Active) (g : Gop.t) =
  match base with
  | `Active -> g.Gop.active_base
  | `Full -> Lazy.force g.Gop.full_base

let is_total ?base g interp =
  Interp.is_total interp ~base:(atom_space ?base g)

(* Search for a proper superset of [interp] (over the undefined atoms of
   the space) that is a model; [f] receives each one found and returns
   [true] to continue the search. *)
let iter_superset_models ?base ?(budget = Budget.unlimited) g interp f =
  let undef = Interp.undefined_atoms interp ~base:(atom_space ?base g) in
  let undef = Array.of_list undef in
  let exception Stop in
  let rec go i m added =
    Budget.tick budget;
    if i >= Array.length undef then begin
      if added && Model.is_model g m then if not (f m) then raise Stop
    end
    else begin
      go (i + 1) m added;
      go (i + 1) (Interp.set m undef.(i) true) true;
      go (i + 1) (Interp.set m undef.(i) false) true
    end
  in
  try go 0 interp false with Stop -> ()

let is_exhaustive ?base ?budget g interp =
  Model.is_model g interp
  &&
  let found = ref false in
  iter_superset_models ?base ?budget g interp (fun _ ->
      found := true;
      false);
  not !found

let extend ?base ?budget g interp =
  if not (Model.is_model g interp) then
    invalid_arg "Exhaustive.extend: not a model";
  (* Take any largest superset model; it is exhaustive by construction. *)
  let best = ref interp in
  iter_superset_models ?base ?budget g interp (fun m ->
      if Interp.cardinal m > Interp.cardinal !best then best := m;
      true);
  !best

(* Same fail-first ordering as the stable search: most-mentioned atoms
   first, ties on the atom id, so the enumeration is deterministic. *)
let order_atoms (g : Gop.t) atoms =
  let occ = Array.make (Gop.n_atoms g) 0 in
  Array.iter
    (fun (r : Gop.grule) ->
      occ.(r.head) <- occ.(r.head) + 1;
      Array.iter (fun (a, _) -> occ.(a) <- occ.(a) + 1) r.body)
    g.Gop.rules;
  List.sort (fun a b -> compare (- occ.(a), a) (- occ.(b), b)) atoms

let total_models ?limit ?(budget = Budget.unlimited) ?stats (g : Gop.t) =
  (* Branch-and-propagate, like {!Stable.assumption_free_models}: a total
     model is in particular a model, hence closed under [V] and a superset
     of lfp(V), so the search seeds the assignment with the least fixpoint,
     re-propagates after every decision, and prunes on conflict.  No
     support pruning here — a total model may contain unsupported literals
     (only condition (a) constrains them).  Anytime: a partial result is a
     prefix of the unbudgeted enumeration. *)
  let stats = match stats with Some s -> s | None -> Counters.create () in
  let acc = ref [] in
  let count = ref 0 in
  try
    let seed = Vfix.lfp ~budget g in
    let branch =
      Array.of_list
        (order_atoms g
           (List.filter
              (fun a -> not (Gop.Values.defined seed a))
              (List.init (Gop.n_atoms g) Fun.id)))
    in
    let dec = Gop.Values.copy seed in
    let full () =
      match limit with
      | Some l -> !count >= l
      | None -> false
    in
    let rec node i =
      Budget.tick budget;
      stats.Counters.nodes <- stats.Counters.nodes + 1;
      if not (full ()) then
        match Vfix.propagate ~budget g dec with
        | Error _ -> stats.prunes <- stats.prunes + 1
        | Ok v -> (
          let rec next j =
            if j >= Array.length branch then None
            else if Gop.Values.defined v branch.(j) then begin
              if not (Gop.Values.defined dec branch.(j)) then
                stats.forced <- stats.forced + 1;
              next (j + 1)
            end
            else Some j
          in
          match next i with
          | None ->
            stats.leaves <- stats.leaves + 1;
            if Model.is_model_v g v then begin
              incr count;
              stats.models <- stats.models + 1;
              acc := Gop.Values.to_interp g v :: !acc
            end
          | Some j ->
            let a = branch.(j) in
            Gop.Values.set dec a true;
            node (j + 1);
            Gop.Values.unset dec a;
            Gop.Values.set dec a false;
            node (j + 1);
            Gop.Values.unset dec a)
    in
    node 0;
    Budget.Complete (List.rev !acc)
  with Budget.Exhausted r -> Budget.Partial (List.rev !acc, r)
