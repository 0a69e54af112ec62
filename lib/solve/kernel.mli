(** The compiled search kernel: flat-array propagation with trailed undo,
    conflict-driven nogood learning and deterministic restarts.

    The one production enumerator: the server, the sessions, the CLI and
    the examples all search through it.  It enumerates the same model
    sets in the same order as the pruned branch-and-propagate searches
    ({!Ordered.Stable.assumption_free_models} /
    {!Ordered.Stable.stable_models}, and the test oracle's pruned
    total-model search), with the same [?limit] prefixes and anytime
    ([Partial]) semantics.
    The difference is mechanical: the kernel walks the ground program's
    CSR rows ({!Ordered.Gop.t}) directly, propagation is maintained
    incrementally across the search tree instead of re-run from scratch
    at every node,
    and conflicts are analysed into nogoods that skip sibling subtrees
    which would conflict immediately.  Visited nodes are therefore never
    more than the pruned search's, and fewer on conflict-heavy programs.

    {b Stable models} are computed by {!Ordered.Parts} (Definition 9 one
    independent part of the residual at a time, each part's maximal
    models certified by a seeded search) with this kernel as the part
    search, all parts sharing one root state, built on the first part
    search.  Their order is
    {!Ordered.Parts}' contract: the lexicographic product of the parts'
    certified lists, the first part the most significant.  A program
    whose residual is one part keeps the assumption-free search order
    filtered to the maximal models; with two or more parts the order
    differs from that filter's.  [?limit:k] is exactly the first [k]
    stable models, and every model of a [Partial] result is stable.

    [?stats] exposes the shared search counters plus the solver-specific
    group ({!Ordered.Counters.t}: propagations, conflicts, learned and
    evicted nogoods, restarts), which only this engine moves. *)

val assumption_free_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  Ordered.Gop.t ->
  Logic.Interp.t list Ordered.Budget.anytime

val stable_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  ?flat:Flat.t ->
  ?least:Ordered.Parts.least ->
  ?carry:Ordered.Parts.carry ->
  Ordered.Gop.t ->
  Logic.Interp.t list Ordered.Budget.anytime
(** [?least] supplies the least model ([Vfix.lfp] of the same gop), so
    it is not computed again, nor its [Interp] map once built; [?carry]
    is {!Ordered.Parts.stable_models}' carried table of part lists.  The
    root state is built only when some part has to be searched.  [?flat]
    is ignored: it exists only because servebench's traced run passes
    it, and goes with {!Flat}. *)

val total_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  Ordered.Gop.t ->
  Logic.Interp.t list Ordered.Budget.anytime

(** {1 Boolean queries}

    Part-wise ({!Ordered.Parts}): a literal the least model decides is
    answered without search, any other by the certified models of its
    own part.  Not anytime: an answer read off a truncated enumeration
    could flip, so a spent budget raises [Budget.Exhausted] instead of
    returning. *)

val is_stable :
  ?budget:Ordered.Budget.t -> Ordered.Gop.t -> Logic.Interp.t -> bool
(** Assumption-free and not properly contained in another assumption-free
    model: one certifying search per part. *)

val cautious :
  ?budget:Ordered.Budget.t -> Ordered.Gop.t -> Logic.Literal.t -> bool
(** Skeptical entailment: the ground literal holds in {e every} stable
    model.  A stable model always exists (the least model is
    assumption-free), so this is never vacuously true. *)

val brave :
  ?budget:Ordered.Budget.t -> Ordered.Gop.t -> Logic.Literal.t -> bool
(** Credulous entailment: the ground literal holds in {e some} stable
    model. *)

val cautious_consequences :
  ?budget:Ordered.Budget.t -> Ordered.Gop.t -> Logic.Interp.t
(** The literals common to all stable models (always a superset of the
    least model, by Theorem 1(b)). *)
