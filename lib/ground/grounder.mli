(** Grounding: from rules with variables to the set of ground instances
    (paper, Section 2: [ground(LP)]), with builtin comparison literals
    evaluated away.

    A ground instance whose builtin literals all evaluate to true keeps only
    its ordinary literals; an instance with a false or non-evaluable builtin
    is blocked in every interpretation and is discarded (sound for all the
    paper's notions: such a rule is never applicable, never non-blocked,
    hence never overrules or defeats).

    There is one grounder: every rule is instantiated over the full
    (depth-bounded) Herbrand universe.  Pruning rules whose bodies can never
    be derived would not preserve the semantics of ordered programs: such a
    rule is never applicable, yet, being non-blocked, it can still overrule
    or defeat its contradictors under Definition 2. *)

type t = {
  rules : Logic.Rule.t list;  (** ground instances, builtin-free, deduplicated *)
  universe : Logic.Term.t list;  (** the Herbrand universe used *)
  active_base : Logic.Atom.t list;
      (** atoms occurring in [rules] (heads or bodies), sorted *)
  full_base : Logic.Atom.t list Lazy.t;
      (** the full Herbrand base over non-builtin predicates *)
}

val naive :
  ?budget:Governor.Budget.t ->
  ?depth:int ->
  ?extra_constants:Logic.Term.t list ->
  Logic.Rule.t list ->
  t
(** Ground a rule list.  [depth] bounds function-symbol nesting in the
    universe (default [0]); [extra_constants] widens the universe (used to
    ground a component against the constants of a whole ordered program).
    [budget] is ticked per candidate instantiation, so deadlines and step
    budgets bound the grounding work; exhaustion raises
    [Governor.Budget.Exhausted].  The instance cap belongs to the ordered
    grounder ([Ordered.Gop.ground ?max_instances]). *)

val ground_rule_instances :
  ?budget:Governor.Budget.t ->
  universe:Logic.Term.t list ->
  Logic.Rule.t ->
  Logic.Rule.t list
(** All surviving ground instances of one rule over a given universe
    (builtins evaluated, arithmetic normalised). *)

val finalize_instance : Logic.Rule.t -> Logic.Rule.t option
(** Evaluate builtins and normalise arithmetic in one ground rule; [None]
    if a builtin is false or not evaluable.  Raises [Invalid_argument] if
    the rule is not ground or has a builtin head. *)
