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
    or defeat its contradictors under Definition 2.

    {b Plans.}  A rule is compiled once per grounding call into an
    {e instantiation plan}: one slot per variable, in {!Logic.Rule.vars}
    order; every argument a constant id, a slot, or a template to
    evaluate; every builtin literal a guard evaluated on the slots.  The
    candidates are the tuples of universe positions, the last slot
    moving fastest — the order of {!Logic.Herbrand.instantiations}.  A
    surviving candidate comes out as a {e key}: an [int array] of literal
    codes [2 * atom + (1 if positive)], the head first, then the ordinary
    body literals in source order (duplicates kept), over the atom ids of
    the shared intern {!table}.  No substitution, rule or atom is built
    per candidate.

    The plans are bit-identical to the substitution grounder they
    replace (apply the substitution, evaluate builtins and arithmetic,
    keep the instance if every builtin is true; kept in [test/oracle] as
    the differential reference): the same instances in the same order,
    the same terms after arithmetic, the same [Eval_error] raised at the
    same candidate (the body is evaluated in source order, then the
    head), and one budget tick per candidate of the cross product. *)

val naive :
  ?budget:Governor.Budget.t ->
  ?depth:int ->
  Logic.Rule.t list ->
  Logic.Rule.t list
(** Ground a rule list through plans: its ground instances,
    builtin-free, deduplicated and sorted.  [depth] bounds
    function-symbol nesting in the universe (default [0]).  [budget] is
    ticked per candidate
    instantiation, so deadlines and step budgets bound the grounding
    work; exhaustion raises [Governor.Budget.Exhausted].  The instance
    cap belongs to the ordered grounder
    ([Ordered.Gop.ground ?max_instances]). *)

(** {1 Instantiation plans} *)

type table
(** The intern table one grounding call shares among its plans: terms
    (the universe first, by position) and atoms, each atom a key
    [[| predicate; argument term ids |]], found by hashing its key into
    an open-addressing array.  Mutable; not thread-safe. *)

val table : Logic.Term.t list -> table
(** A fresh table over a sorted, deduplicated universe (as
    {!Logic.Herbrand.universe} returns it). *)

val n_atoms : table -> int

val atom : table -> int -> Logic.Atom.t
(** The atom of an id, built on first request and shared after. *)

val compare_lits : table -> int -> int -> int
(** {!Logic.Literal.compare} on literal codes, by integer work wherever
    both atoms' arguments lie in the universe. *)

type plan

val compile : table -> Logic.Rule.t -> plan

val iter : ?budget:Governor.Budget.t -> table -> plan -> (int array -> unit) -> unit
(** [iter tbl plan emit] calls [emit] with the key of every surviving
    candidate, in candidate order; each key is a fresh array the callee
    may keep.  Ticks [budget] once per candidate.  Raises
    [Governor.Diag.Error (Eval_error _)] on division or modulo by zero,
    and [Invalid_argument] if the rule has a builtin head. *)

module Key_tbl : Hashtbl.S with type key = int array
(** Hash tables keyed by instance keys, hashed and compared by loops
    over the ints. *)
