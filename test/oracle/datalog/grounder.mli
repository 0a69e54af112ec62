(** The classical substrate's own grounder: bottom-up "intelligent"
    grounding, which only produces instances whose ordinary body literals
    are supported by heads of already-produced instances (unbound
    variables fall back to universe enumeration), computed semi-naively.

    It preserves the classical bottom-up semantics this library computes
    (least fixpoints, well-founded, stable and perfect models under
    negation as failure).  It does {b not} preserve the semantics of
    ordered programs, the [OV]/[EV] embeddings included: a pruned rule
    with an underivable body is never applicable, yet, being non-blocked,
    it can still overrule or defeat its contradictors under Definition 2.
    The ordered engines ground with [Ground.Grounder]; test_ground
    keeps the witness.

    This module also keeps the substitution grounder ({!instances}), the
    reference the production instantiation plans are differentially
    tested against. *)

val finalize_instance : Logic.Rule.t -> Logic.Rule.t option
(** Evaluate builtins and normalise arithmetic in one ground rule; [None]
    if a builtin is false or not evaluable.  Raises [Invalid_argument] if
    the rule is not ground or has a builtin head. *)

val instances :
  ?budget:Governor.Budget.t ->
  universe:Logic.Term.t list ->
  Logic.Rule.t ->
  Logic.Rule.t list
(** The substitution grounder: every substitution of
    [Herbrand.instantiations universe (Rule.vars r)], applied and
    finalised, one budget tick each — the reference the production
    plans ([Ground.Grounder]) are differentially tested against. *)

val relevant :
  ?budget:Governor.Budget.t ->
  ?naf:bool ->
  ?depth:int ->
  Logic.Rule.t list ->
  Logic.Rule.t list
(** Relevance-driven grounding over the depth-bounded Herbrand universe of
    the rules: the instances it produces, deduplicated and sorted.

    With [~naf:true] negative body literals are read as negation-as-failure:
    they are assumed satisfiable during grounding (their variables, if not
    bound elsewhere, are enumerated over the universe) instead of being
    matched against derived negative heads.  {!Engine.load} grounds in
    this mode.  [budget] is ticked per candidate match and polled once per
    semi-naive round; exhaustion raises [Governor.Budget.Exhausted]. *)
