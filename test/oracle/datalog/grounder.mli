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
    The ordered engines ground with [Ground.Grounder.naive]; test_ground
    keeps the witness. *)

val relevant :
  ?budget:Governor.Budget.t ->
  ?naf:bool ->
  ?depth:int ->
  ?extra_constants:Logic.Term.t list ->
  Logic.Rule.t list ->
  Ground.Grounder.t
(** Relevance-driven grounding over the depth-bounded Herbrand universe of
    the rules (widened by [extra_constants]).

    With [~naf:true] negative body literals are read as negation-as-failure:
    they are assumed satisfiable during grounding (their variables, if not
    bound elsewhere, are enumerated over the universe) instead of being
    matched against derived negative heads.  {!Engine.load} grounds in
    this mode.  [budget] is ticked per candidate match and polled once per
    semi-naive round; exhaustion raises [Governor.Budget.Exhausted]. *)
