(** Memoizing knowledge-base sessions: a {!Store} plus a result cache,
    with lock-free snapshot reads.  This is the one front end for
    questions about a knowledge base ([Kb] includes it): the REPL, the
    examples and the query server all ask through it.

    A session wraps a knowledge base for the repeated-query workload of a
    resident server: the ground program, least model, model enumerations
    and explanations computed for one viewpoint are memoized, so asking
    the same question against an unchanged KB skips grounding and solving
    entirely.

    {b Versions and snapshots.}  The session keeps one mutable master
    store, guarded by an internal write lock, and {e publishes} an
    immutable snapshot view — a (version, store copy, cache) tuple —
    through a single atomic reference after every
    successful mutation.  A query pins the current view with one atomic
    read and runs entirely against that frozen version: no lock, no
    interference from writers preparing the next version, and no torn
    state even while a [load] or [new_version] is mid-mutation on the
    master.  Any number of threads (or OCaml 5 domains) may query
    concurrently; mutating operations serialize on the write lock.

    {b Keying.}  A view holds one cache map, from (viewpoint object,
    program) to a record.  The program is the object's own view or the
    {!Prefer.Compile} translation of its preference spec, viewed from
    [#view]; both records have one shape: the grounding and the results
    keyed by operation (including its [limit]).  A preferred answer is
    thus the stable-model listing of its record's program.  Every
    mutation publishes a new view, and a lookup only reads the cache of
    the view it pinned, so a hit always
    answers from the store copy the entry was computed against (or from
    an entry the delta eviction below proved unaffected by the mutations
    since).  There is one engine per question — the least fixpoint for
    [query], the compiled kernel ({!Solve.Kernel}) on the record's
    cached grounding for every enumeration — so no engine choice enters
    the key.

    {b Part lists.}  A record, plain or preferred, also holds the
    certified lists of the residual parts ({!Ordered.Parts}) its last
    stable-model listing met, keyed by part {e content}: the part's
    branch atoms as positions with their possible polarities, its live
    rules with the body literals the least model makes true dropped, and
    the overrule/defeat edges among them (docs/SEMANTICS.md §5.1, "Part
    keys").  Equal keys give positionally equal lists, so an entry never
    goes stale.  A stable-model miss lists every part the table covers
    from it, isomorphic parts sharing one list, and passes the record's
    least model when it is over the current grounding; the kernel's
    root state is built only if some part has to be searched.  The listing's
    parts then replace the table (a [Partial] listing's too: every entry
    is a certified prefix).

    {b Invalidation: delta eviction.}  The mutating operations
    ({!define}, {!define_src}, {!load}, {!add_rule}, {!add_rule_src},
    {!add_fact}, {!remove_rule} when it removes, {!new_version}) publish
    a fresh view and count one invalidation, but the new view {e carries
    the old cache forward} through delta-aware eviction instead of
    starting empty (docs/INCREMENTAL.md):

    - {!define}/{!new_version} add a fresh object no existing view can
      see: everything is kept.
    - {!add_rule}/{!remove_rule} on object [o] touch only the records of
      the viewpoints whose isa-cone contains [o].  A preferred record
      among them is evicted whole.  For a plain one, the grounding
      is {e repaired} incrementally ([Inc.Reground]); if the mutation
      turns out not to change the viewpoint's ground program, every
      entry is kept, otherwise the least model is repaired from the
      delta's affected cone ([Inc.Repair]) and enumerations /
      explanations for that viewpoint are evicted.
      Its part lists are carried unchecked: a part the write changed
      has a new key.
      When repair cannot guarantee exactness (changed Herbrand universe,
      shared ground instances, non-monotone damage) it falls back to
      eviction or recompute — counted, never silent.
    - {!set_preference}/{!clear_preference} evict every preferred
      record whole and keep every plain one.
    - {!load} may rewire parents of existing objects, so it evicts
      everything.

    A record evicted whole (a fallback, a preferred record a write or a
    preference edit reaches, {!load}, {!invalidate}) loses its part
    lists with it.

    Flush-on-write is {!invalidate} after a write.  Repairs, fallbacks,
    evictions and carried entries (results and part lists) are counted
    in {!counters} and, when {!use_metrics} is wired, as
    [inc_repairs] / [inc_fallbacks] / [inc_evictions] / [cache_kept]
    server metrics.

    {b Budgets.}  A cache miss computes under the caller's budget, and
    only {e complete} results are stored: a [Partial] enumeration or a
    raised [Budget.Exhausted] leaves the cache untouched, so a later,
    better-funded call recomputes rather than serving a truncated
    answer.  A hit returns the cached complete result without consuming
    budget. *)

type t

val create : unit -> t

val of_store : Store.t -> t
(** Wrap an existing knowledge base (e.g. one rebuilt by crash recovery)
    in a fresh session; the cache starts empty and the store's state is
    published as version 0. *)

val store : t -> Store.t
(** The underlying master knowledge base.  Mutating it directly bypasses
    invalidation accounting and the {!on_mutation} observer {e and} the
    snapshot publication — readers keep answering from the last
    published view until {!invalidate} republishes (the replication
    bootstrap path does exactly that after a snapshot
    {!Store.restore}). *)

val on_mutation : t -> (Store.mutation -> unit) -> unit
(** Register the mutation observer (one slot; a second call replaces the
    first).  After a mutating operation succeeds on the store — and
    {e before} the new view is published — the observer is called with
    the reified {!Store.mutation}; the persistence subsystem uses this to
    append to its write-ahead log, so a mutation is durable before any
    reader can observe it.  An observer that raises propagates to the
    caller: the master store has mutated but no new view was published,
    which leaves the log behind the store — callers treat that as a
    fatal storage error. *)

(** {1 Counters} *)

type counters = {
  hits : int;  (** lookups answered from the cache *)
  misses : int;  (** lookups that had to compute *)
  invalidations : int;  (** view publications by mutating operations *)
  entries : int;
      (** results cached in the current view (ground programs aside) *)
  repairs : int;
      (** groundings/fixpoints repaired in place by delta eviction *)
  fallbacks : int;
      (** repairs that had to fall back to eviction or full recompute *)
  evictions : int;  (** result entries dropped by eviction *)
  kept : int;  (** result entries and part lists carried across a mutation *)
}

val counters : t -> counters

val use_metrics : t -> Governor.Metrics.t -> unit
(** Mirror the delta-eviction counters into a metrics registry as
    [inc_repairs], [inc_fallbacks], [inc_evictions] and [cache_kept],
    and the carried part lists as [part_hits] (parts a stable-model miss
    listed without a search) and [part_searches] (part enumerations it
    ran), preferred records included; all six are registered
    immediately (at zero) so [stats] stays deterministic.
    Preferred-model queries also count: one [prefer_compilations] per
    grounding of a preferred record (a compilation of the preference
    program), one [prefer_cache_hits] per answer served from a
    preferred record's cached grounding or result, and the compiled
    grounding's size as [prefer_gop_atoms]/[prefer_gop_rules]
    high-water gauges. *)

val version : t -> int
(** The current view's version number: 0 at creation, +1 per published
    mutation (including {!invalidate}).  Monotone — concurrent readers
    can use it to order the snapshots they observed. *)

(** {1 Mutating operations} (see {!Store} for their semantics) *)

val define : t -> ?isa:string list -> string -> Logic.Rule.t list -> unit
val load : t -> string -> unit
val add_rule : t -> obj:string -> Logic.Rule.t -> unit
val add_rule_src : t -> obj:string -> string -> unit
val remove_rule : t -> obj:string -> Logic.Rule.t -> bool
val new_version : t -> ?rules:Logic.Rule.t list -> string -> string

val set_preference : t -> rule:string -> over:string -> unit
(** {!Store.set_preference} through the session: the pair is logged and
    a fresh view published.  A no-op repeat still publishes. *)

val clear_preference : t -> rule:string -> over:string -> bool
(** Like {!remove_rule}: only a removal that actually happened is logged
    and published. *)

val apply : t -> Store.mutation -> unit
(** Replay one reified mutation ({!Store.apply}) through the session:
    the {!on_mutation} observer fires and a fresh view is published
    exactly as if the corresponding named operation had been called.
    This is the replication apply path — a replica feeds shipped WAL
    records here so its own log and cache track its store. *)

val apply_batch : t -> Store.mutation list -> unit
(** Replay a whole batch of shipped mutations under one lock
    acquisition, notifying the observer per record (in order) but
    publishing — and counting — a single invalidation at the end, so
    catching up by [n] records costs one store copy instead of [n].
    The carried caches are folded through each record's delta in order,
    so a replica repairs derived state exactly as the primary did.
    A record that raises publishes the prefix that did apply and
    re-raises. *)

val invalidate : t -> unit
(** Republish the master's current state as a fresh view with an empty
    cache (counted as one invalidation).  Used after out-of-band store
    changes such as a snapshot {!Store.restore} during replication
    bootstrap, and after a write to flush the cache wholesale. *)

(** {1 Read-only views} (answered from the current snapshot; never touch
    the cache counters) *)

val objects : t -> string list
val parents : t -> string -> string list
val rules : t -> string -> Logic.Rule.t list
val versions : t -> string -> string list
val preferences : t -> (string * string) list
val to_program : t -> Ordered.Program.t
val to_source : t -> string

(** {1 Memoized queries}

    Each question is answered from the view of one object [obj]: the
    ground ordered program of [C*], the object with everything it
    inherits.  Unknown objects raise [Invalid_argument]. *)

val gop : ?budget:Ordered.Budget.t -> t -> obj:string -> Ordered.Gop.t
(** The ground view from [obj] (the budget only governs a call that
    actually grounds). *)

val least_model :
  ?budget:Ordered.Budget.t -> t -> obj:string -> Logic.Interp.t
(** The least model viewed from [obj] (the constructive,
    assumption-free semantics of the paper's Section 2).  The cache
    keeps it as codes over the grounding's atom ids, repaired in place
    of the old codes by a write; each call decodes it. *)

val query :
  ?budget:Ordered.Budget.t ->
  t ->
  obj:string ->
  Logic.Literal.t ->
  Logic.Interp.value
(** Truth of a ground literal in the least model viewed from [obj]: one
    atom-id lookup in the cached codes.
    [Logic.Interp.True] means the literal holds; querying [l] and [neg l]
    distinguishes false from undefined.  [budget] governs grounding and
    the fixpoint; exhaustion raises [Ordered.Budget.Exhausted].  Raises
    [Invalid_argument] on a non-ground literal. *)

val stable_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime
(** Anytime, like {!Solve.Kernel.stable_models}, which enumerates: a
    [Partial] result carries the stable models found before the budget
    ran out.  Models come in the kernel's search order; [stats]
    accumulates search effort, solver counters included. *)

val assumption_free_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime
(** All assumption-free models viewed from [obj] (the stable models are
    their maximal elements); same engine, [stats] and anytime contract
    as {!stable_models}. *)

type rendering = ..
(** What {!answer} keeps beside a cached enumeration: the form a front
    end answers with (the server adds its wire value). *)

val answer :
  [ `Stable | `Af | `Preferred ] ->
  render:(Logic.Interp.t list -> rendering) ->
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime * rendering
(** {!stable_models}, {!assumption_free_models} or {!preferred_models}
    together with [render] of the models.  A complete result's rendering
    is kept in the same cache entry as the models: it is computed once,
    by the first [answer] that needs it, and evicted with the entry, so
    a cache hit renders nothing.  A partial result is rendered afresh. *)

val explain : t -> obj:string -> Logic.Literal.t -> Ordered.Explain.t
(** Why a literal holds, fails or stays undefined viewed from [obj]. *)

val preferred_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime
(** The preferred models viewed from [obj] under the store's preference
    pairs (with no pairs: exactly {!stable_models}): the stable models
    of the {!Prefer.Compile} translation of {!Store.prefer_spec},
    listed like {!stable_models} from the viewpoint's preferred record
    (its grounding compiled once per view, its part lists carried).
    Raises {!Ordered.Diag.Error} if a preference names a rule absent
    from this view. *)
