open Logic

let is_total g interp = Interp.is_total interp ~base:(Gop.active_base g)

(* Search for a proper superset of [interp] (over the undefined atoms of
   the active base) that is a model; [f] receives each one found and returns
   [true] to continue the search. *)
let iter_superset_models ?(budget = Budget.unlimited) g interp f =
  let undef = Interp.undefined_atoms interp ~base:(Gop.active_base g) in
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

let is_exhaustive ?budget g interp =
  Model.is_model g interp
  &&
  let found = ref false in
  iter_superset_models ?budget g interp (fun _ ->
      found := true;
      false);
  not !found

let extend ?budget g interp =
  if not (Model.is_model g interp) then
    invalid_arg "Exhaustive.extend: not a model";
  (* Take any largest superset model; it is exhaustive by construction. *)
  let best = ref interp in
  iter_superset_models ?budget g interp (fun m ->
      if Interp.cardinal m > Interp.cardinal !best then best := m;
      true);
  !best
