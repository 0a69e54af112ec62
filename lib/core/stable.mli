(** Assumption-free and stable models of an ordered program in a component
    (paper, Definitions 7 and 9).

    A {e stable} model is a maximal assumption-free model; uniqueness is
    not guaranteed (Example 5).  Every assumption-free model contains the
    least fixpoint of [V] (Theorem 1(b)) and consists solely of literals
    that occur as ground rule heads (each of its literals needs an applied
    supporting rule), so the enumeration branches on head literals outside
    the least fixpoint — exponential in their number in the worst case.

    {b Search.}  The default enumerator is a branch-and-propagate search:
    after every branching decision it re-runs the incremental counting
    engine ({!Vfix.propagate}) from the partial assignment, forcing the
    implied values (which need not be branched on at all) and pruning the
    subtree on a conflict — a derivation contradicting a decision, or a
    decided literal whose every potential supporting rule has died — long
    before a complete leaf.  Branching follows a fail-first heuristic
    (most-mentioned atoms first).  The serving path runs the compiled
    kernel ({!Solve.Kernel}) instead, which enumerates in exactly this
    search's order; this search stays as the paper-level API and the
    kernel's order reference.  The pre-propagation leaf-check oracle
    lives in the test-only [oracle] library.

    {b Enumeration order.}  All enumeration entry points ({!val:assumption_free_models},
    {!val:stable_models} and {!Exhaustive.total_models}) return models in
    {e search order} — first discovered first, a deterministic function
    of the ground program alone.  Consequently [?limit:k] returns exactly
    the first [k] elements of the unlimited enumeration, and the first
    assumption-free model is always the least model.

    {b Anytime semantics.}  The enumerations take a {!Budget.t} and return
    a {!Budget.anytime} value: [Complete models] when the search finished,
    or [Partial (models, reason)] when the budget ran out first — whether
    at a search node or in the middle of a propagation.  The search order
    is deterministic, so the models of a [Partial] result are a prefix of
    the unbudgeted enumeration (for {!val:stable_models}, the maximal
    elements of such a prefix — each returned model is assumption-free,
    but a later, larger model may have been missed).  Boolean queries
    ({!cautious}, {!brave}, {!is_stable}) are {e not} anytime — a
    truncated enumeration could flip their answer — so they raise
    [Budget.Exhausted] instead.

    [?stats] exposes the search effort ({!Counters.t}: nodes, leaves,
    pruned subtrees, forced branches, models); the benchmark suite uses it
    to track the pruned-vs-naive node ratio in [BENCH_PR2.json]. *)

val assumption_free_models :
  ?limit:int -> ?budget:Budget.t -> ?stats:Counters.t -> Gop.t ->
  Logic.Interp.t list Budget.anytime
(** All assumption-free models (at most [limit] if given), in search
    order; a complete enumeration always starts with the least model. *)

val stable_models :
  ?limit:int -> ?budget:Budget.t -> ?stats:Counters.t -> Gop.t ->
  Logic.Interp.t list Budget.anytime
(** The maximal assumption-free models, in the search order of the
    underlying assumption-free enumeration.  [limit] caps that underlying
    enumeration (so with a limit the result may miss stable models but
    every returned model is assumption-free and maximal among those
    enumerated); the same caveat applies to [Partial] results. *)

val maximal :
  ?budget:Budget.t ->
  Logic.Interp.t list Budget.anytime ->
  Logic.Interp.t list Budget.anytime
(** The maximality filter behind every [stable_models]: the elements of
    an assumption-free enumeration that no other element strictly
    extends, in enumeration order.  The filter is quadratic, so it polls
    the deadline and the cancellation flag once per candidate
    ({!Budget.poll_deadline}: no steps; a step limit that cut the
    enumeration leaves its prefix to be filtered).  When it trips, the
    candidates already confirmed maximal come back as [Partial] with the
    reason; otherwise the enumeration's own [Complete]/[Partial] stands. *)

val is_stable : ?budget:Budget.t -> Gop.t -> Logic.Interp.t -> bool
(** Assumption-free and not properly contained in another assumption-free
    model. *)

val cautious : ?budget:Budget.t -> Gop.t -> Logic.Literal.t -> bool
(** Skeptical entailment: the ground literal holds in {e every} stable
    model.  [false] when there is no stable model... which cannot happen:
    the least model is assumption-free, so a stable model always exists —
    but the literal may simply fail somewhere. *)

val brave : ?budget:Budget.t -> Gop.t -> Logic.Literal.t -> bool
(** Credulous entailment: the ground literal holds in {e some} stable
    model. *)

val cautious_consequences : ?budget:Budget.t -> Gop.t -> Logic.Interp.t
(** The literals common to all stable models (always a superset of the
    least model, by Theorem 1(b)). *)
