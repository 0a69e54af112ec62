(** The typed delta of one KB mutation at the ground level: which ground
    rules a repaired grounding gained or lost relative to the previous
    grounding of the same viewpoint, by rule index and atom id.

    A delta is always expressed against the {e repaired} grounding (the
    one {!Reground} returns): [added] indexes rules in that grounding,
    and [seeds] names atoms by their ids in it.  Removed instances have
    no index there; they are counted, and their head atoms that survive
    are seeds.  {!Cone} turns a delta into the affected-atom cone that
    seeds fixpoint repair ({!Repair}). *)

type t = {
  added : int list;  (** indices of the added ground rules in the new gop *)
  removed : int;  (** how many ground instances the mutation dropped *)
  seeds : int list;
      (** the head atoms of the added and removed instances, as ids in
          the new gop, sorted and distinct — the seed [S0] of the
          affected cone (a removed instance's head that vanished with it
          has none) *)
}

val empty : t

val is_empty : t -> bool
(** No ground-level change: the mutation's instances all deduplicated
    away (or an added rule had no instances), so every derived result
    for this viewpoint is still exact. *)
