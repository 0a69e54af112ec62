(** Total and exhaustive models (paper, Definition 5, Proposition 2).

    A model [M] is {e total} when no atom is undefined, and {e exhaustive}
    when no proper superset of [M] is a model.  Every total model is
    exhaustive; the converse fails, and total models need not exist (the
    paper's program [P2]).

    Totality and exhaustiveness are relative to an atom space.  The
    default is the {e active base} (atoms occurring in the ground rules):
    over the full Herbrand base, any atom mentioned in no rule can be added
    to any model with either sign, so no model would be exhaustive without
    deciding every such free atom.  Pass [~base:`Full] for the paper's
    literal reading.

    The superset searches are exponential in the number of undefined
    atoms; they are meant for analysis and testing, not for large
    programs. *)

val is_total : ?base:[ `Active | `Full ] -> Gop.t -> Logic.Interp.t -> bool

val is_exhaustive :
  ?base:[ `Active | `Full ] -> ?budget:Budget.t -> Gop.t -> Logic.Interp.t ->
  bool
(** [M] is a model and no proper superset of [M] (over the chosen atom
    space) is a model.  Budget exhaustion raises [Budget.Exhausted] (the
    boolean answer is not anytime). *)

val extend :
  ?base:[ `Active | `Full ] -> ?budget:Budget.t -> Gop.t -> Logic.Interp.t ->
  Logic.Interp.t
(** Proposition 2: some exhaustive model containing the given model
    (returns the input when it is already exhaustive).  Raises
    [Invalid_argument] if the input is not a model and [Budget.Exhausted]
    when the budget runs out. *)
