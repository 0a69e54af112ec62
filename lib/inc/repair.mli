(** Least-fixpoint repair: re-derive only the affected cone.

    Seeds {!Ordered.Vfix.repair} with the previous least model minus the
    delta's affected cone.  By {!Cone}'s guarantee the seed is below the
    new fixpoint, so propagation lands exactly on it ([Repaired]); a
    propagation conflict means the cone analysis was beaten by
    non-monotone damage and the fixpoint is recomputed from scratch
    ([Recomputed]) — counted by the caller, never silent. *)

type 'a outcome =
  | Unchanged  (** empty delta: the previous model is still exact *)
  | Repaired of 'a
  | Recomputed of 'a  (** fell back to a full fixpoint *)

val least_codes :
  ?budget:Governor.Budget.t ->
  old:Ordered.Gop.t ->
  previous:Ordered.Gop.Values.t ->
  Ordered.Gop.t ->
  Delta.t ->
  Ordered.Gop.Values.t outcome
(** [least_codes ~old ~previous g d]: [g] is the repaired grounding and
    [d] the delta {!Reground.reground} emitted for it; [previous] is the
    least model over [old]'s atom ids, computed before the mutation.
    The seed is carried over to [g]'s ids by {!Ordered.Gop.Values.carry}
    (one blit when the splice kept the ids), so the work is the cone
    plus an array copy; [previous] is never modified, and a repaired
    result is a fresh array. *)

val least_model :
  ?budget:Governor.Budget.t ->
  previous:Logic.Interp.t ->
  Ordered.Gop.t ->
  Delta.t ->
  Logic.Interp.t outcome
(** {!least_codes} for a previous model given as an interpretation: it
    is encoded over [g]'s atoms and the result decoded. *)
