(** The pruned assumption-free and stable-model search (paper,
    Definitions 7 and 9).

    {b Why this is still in [lib/].}  Production enumerates with the
    compiled kernel ({!Solve.Kernel}), which also answers the boolean
    queries (cautious, brave, [is_stable]).  This search stays here for
    one reason: the order gate of the serving benchmark
    ([servebench/servebench.ml]) links it, and that benchmark only
    changes in benchmark PRs.  It moves to the test-only [oracle]
    library with the benchmark's next change.  Besides that gate, the
    kernel's differential tests use it as the enumeration-order
    reference.

    A {e stable} model is a maximal assumption-free model; uniqueness is
    not guaranteed (Example 5).  Every assumption-free model contains the
    least fixpoint of [V] (Theorem 1(b)) and consists solely of literals
    that occur as ground rule heads (each of its literals needs an applied
    supporting rule), so the enumeration branches on head literals outside
    the least fixpoint — exponential in their number in the worst case.

    {b Search.}  A branch-and-propagate search: after every branching
    decision it re-runs the incremental counting engine
    ({!Vfix.propagate}) from the partial assignment, forcing the implied
    values (which need not be branched on at all) and pruning the subtree
    on a conflict — a derivation contradicting a decision, or a decided
    literal whose every potential supporting rule has died — long before
    a complete leaf.  Branching follows a fail-first heuristic
    (most-mentioned atoms first).

    {b Enumeration order.}  The assumption-free enumeration returns
    models in {e search order} — first discovered first, a deterministic
    function of the ground program alone; the first is always the least
    model.  The stable models follow {!Parts}' order contract: the
    lexicographic product of the independent parts' maximal models,
    each part in this search order.  Either way [?limit:k] returns
    exactly the first [k] elements of the unlimited enumeration.  The
    kernel enumerates in exactly these orders.

    {b Anytime semantics.}  The enumerations take a {!Budget.t} and return
    a {!Budget.anytime} value: [Complete models] when the search finished,
    or [Partial (models, reason)] when the budget ran out first — whether
    at a search node or in the middle of a propagation.  The search order
    is deterministic, so the models of a [Partial] result are a prefix of
    the unbudgeted enumeration (for {!val:stable_models} too: every
    model of a [Partial] result is stable).

    [?stats] exposes the search effort ({!Counters.t}: nodes, leaves,
    pruned subtrees, forced branches, models). *)

val assumption_free_models :
  ?limit:int -> ?budget:Budget.t -> ?stats:Counters.t -> Gop.t ->
  Logic.Interp.t list Budget.anytime
(** All assumption-free models (at most [limit] if given), in search
    order; a complete enumeration always starts with the least model. *)

val stable_models :
  ?limit:int -> ?budget:Budget.t -> ?stats:Counters.t -> Gop.t ->
  Logic.Interp.t list Budget.anytime
(** The stable models (maximal assumption-free models), by {!Parts} over
    this search: in the order contract stated there, [limit] a true
    prefix, every model of a [Partial] result stable. *)
