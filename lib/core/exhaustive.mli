(** Total and exhaustive models (paper, Definition 5, Proposition 2).

    A model [M] is {e total} when no atom is undefined, and {e exhaustive}
    when no proper superset of [M] is a model.  Every total model is
    exhaustive; the converse fails, and total models need not exist (the
    paper's program [P2]).

    Totality and exhaustiveness are relative to an atom space, here the
    {e active base} ({!Gop.active_base}: the atoms occurring in the ground
    rules).  Over the full Herbrand base, any atom mentioned in no rule
    can be added to any model with either sign, so no model would be
    exhaustive without deciding every such free atom.

    The superset searches are exponential in the number of undefined
    atoms; they are meant for analysis and testing, not for large
    programs. *)

val is_total : Gop.t -> Logic.Interp.t -> bool

val is_exhaustive : ?budget:Budget.t -> Gop.t -> Logic.Interp.t -> bool
(** [M] is a model and no proper superset of [M] (over the active base)
    is a model.  Budget exhaustion raises [Budget.Exhausted] (the
    boolean answer is not anytime). *)

val extend : ?budget:Budget.t -> Gop.t -> Logic.Interp.t -> Logic.Interp.t
(** Proposition 2: some exhaustive model containing the given model
    (returns the input when it is already exhaustive).  Raises
    [Invalid_argument] if the input is not a model and [Budget.Exhausted]
    when the budget runs out. *)
