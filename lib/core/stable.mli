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
    reference, and the kernel shares {!maximal}.

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

    {b Enumeration order.}  Both enumerations return models in
    {e search order} — first discovered first, a deterministic function
    of the ground program alone.  Consequently [?limit:k] returns exactly
    the first [k] elements of the unlimited enumeration, and the first
    assumption-free model is always the least model.  The kernel
    enumerates in exactly this order.

    {b Anytime semantics.}  The enumerations take a {!Budget.t} and return
    a {!Budget.anytime} value: [Complete models] when the search finished,
    or [Partial (models, reason)] when the budget ran out first — whether
    at a search node or in the middle of a propagation.  The search order
    is deterministic, so the models of a [Partial] result are a prefix of
    the unbudgeted enumeration (for {!val:stable_models}, the maximal
    elements of such a prefix — each returned model is assumption-free,
    but a later, larger model may have been missed).

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
