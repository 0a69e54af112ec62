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
