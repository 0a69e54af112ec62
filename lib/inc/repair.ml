module Gop = Ordered.Gop
module Vfix = Ordered.Vfix

type 'a outcome =
  | Unchanged
  | Repaired of 'a
  | Recomputed of 'a

(* Unset the delta's affected cone in [seed] (a fresh assignment) and
   propagate above the rest. *)
let repair ?budget g d seed =
  Array.iteri
    (fun a m -> if m then Gop.Values.unset seed a)
    (Cone.affected g d);
  match Vfix.repair ?budget g ~seed with
  | `Repaired v -> Repaired v
  | `Recomputed v -> Recomputed v

let least_codes ?budget ~old ~previous (g : Gop.t) (d : Delta.t) =
  if Delta.is_empty d then Unchanged
  else repair ?budget g d (Gop.Values.carry ~from:old previous g)

let least_model ?budget ~previous (g : Gop.t) (d : Delta.t) =
  if Delta.is_empty d then Unchanged
  else
    match repair ?budget g d (fst (Gop.Values.of_interp g previous)) with
    | Repaired v -> Repaired (Gop.Values.to_interp g v)
    | Recomputed v -> Recomputed (Gop.Values.to_interp g v)
    | Unchanged -> Unchanged
