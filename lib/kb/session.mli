(** Memoizing knowledge-base sessions: a {!Store} plus a result cache,
    with lock-free snapshot reads.

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

    {b Keying.}  Within a view, cache entries are keyed by the viewpoint
    object and the operation (including its [limit]).  Every mutation
    publishes a new view, and a lookup only reads the caches of the view
    it pinned, so a hit always answers from the store copy the entry was
    computed against (or from an entry the delta eviction below proved
    unaffected by the mutations since).  There is one engine per
    question — the least fixpoint for [query], the compiled kernel
    ({!Solve.Kernel}) on a per-view cached {!Solve.Flat} program for
    every enumeration — so no engine choice enters the key.

    {b Invalidation: delta eviction.}  The mutating operations
    ({!define}, {!define_src}, {!load}, {!add_rule}, {!add_rule_src},
    {!add_fact}, {!remove_rule} when it removes, {!new_version}) publish
    a fresh view and count one invalidation, but the new view {e carries
    the old caches forward} through delta-aware eviction instead of
    starting empty (docs/INCREMENTAL.md):

    - {!define}/{!new_version} add a fresh object no existing view can
      see: everything is kept.
    - {!add_rule}/{!remove_rule} on object [o] touch only the cached
      viewpoints whose isa-cone contains [o].  For those, the grounding
      is {e repaired} incrementally ([Inc.Reground]); if the mutation
      turns out not to change the viewpoint's ground program, every
      entry is kept, otherwise the least model is repaired from the
      delta's affected cone ([Inc.Repair]) and enumerations /
      explanations / preference caches for that viewpoint are evicted.
      When repair cannot guarantee exactness (changed Herbrand universe,
      shared ground instances, non-monotone damage) it falls back to
      eviction or recompute — counted, never silent.
    - {!set_preference}/{!clear_preference} evict only preference-derived
      state (preferred-model entries, compiled preference programs).
    - {!load} may rewire parents of existing objects, so it evicts
      everything.

    {!set_eviction} [`Wholesale] restores flush-on-write (the baseline
    of the incremental benchmark and the session tests).  Repairs, fallbacks, evictions
    and carried entries are counted in {!counters} and, when
    {!use_metrics} is wired, as [inc_repairs] / [inc_fallbacks] /
    [inc_evictions] / [cache_kept] server metrics.

    {b Budgets.}  A cache miss computes under the caller's budget exactly
    like the underlying {!Store} call, and only {e complete} results are
    stored: a [Partial] enumeration or a raised [Budget.Exhausted]
    leaves the cache untouched, so a later, better-funded call recomputes
    rather than serving a truncated answer.  A hit returns the cached
    complete result without consuming budget. *)

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
  kept : int;  (** result entries carried across a mutation *)
}

val counters : t -> counters

val use_metrics : t -> Governor.Metrics.t -> unit
(** Mirror the delta-eviction counters into a metrics registry as
    [inc_repairs], [inc_fallbacks], [inc_evictions] and [cache_kept],
    and the flat-compile cache as [flat_compiles]/[flat_cache_hits];
    all six are registered immediately (at zero) so [stats] stays
    deterministic. *)

val set_eviction : t -> [ `Delta | `Wholesale ] -> unit
(** Eviction policy on mutation: [`Delta] (default) carries caches
    forward per the contract above; [`Wholesale] publishes empty caches
    (every surviving entry dropped) — the flush-on-write baseline. *)

val eviction : t -> [ `Delta | `Wholesale ]

val version : t -> int
(** The current view's version number: 0 at creation, +1 per published
    mutation (including {!invalidate}).  Monotone — concurrent readers
    can use it to order the snapshots they observed. *)

(** {1 Mutating operations} (see {!Store} for semantics) *)

val define : t -> ?isa:string list -> string -> Logic.Rule.t list -> unit
val define_src : t -> ?isa:string list -> string -> string -> unit
val load : t -> string -> unit
val add_rule : t -> obj:string -> Logic.Rule.t -> unit
val add_rule_src : t -> obj:string -> string -> unit
val add_fact : t -> obj:string -> Logic.Literal.t -> unit
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
(** Republish the master's current state as a fresh view (counted as one
    invalidation).  Used after out-of-band store changes such as a
    snapshot {!Store.restore} during replication bootstrap. *)

(** {1 Read-only views} (answered from the current snapshot; never touch
    the cache counters) *)

val objects : t -> string list
val parents : t -> string -> string list
val rules : t -> string -> Logic.Rule.t list
val latest_version : t -> string -> string
val versions : t -> string -> string list
val preferences : t -> (string * string) list

(** {1 Memoized queries} (see {!Store} for semantics) *)

val gop : ?budget:Ordered.Budget.t -> t -> obj:string -> Ordered.Gop.t

val least_model :
  ?budget:Ordered.Budget.t -> t -> obj:string -> Logic.Interp.t

val query :
  ?budget:Ordered.Budget.t ->
  t ->
  obj:string ->
  Logic.Literal.t ->
  Logic.Interp.value

val query_src :
  ?budget:Ordered.Budget.t -> t -> obj:string -> string -> Logic.Interp.value

val stable_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime

val assumption_free_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime

val explain : t -> obj:string -> Logic.Literal.t -> Ordered.Explain.t

val prefer_gop :
  ?budget:Ordered.Budget.t ->
  ?metrics:Governor.Metrics.t ->
  t ->
  obj:string ->
  Ordered.Gop.t
(** The grounding of the compiled preference program for [obj], cached
    per view like {!gop}.  [metrics] (when given) counts one
    [prefer_compilations] per actual compilation, one
    [prefer_cache_hits] per served cache hit, and tracks the compiled
    grounding's size as [prefer_gop_atoms]/[prefer_gop_rules]
    high-water gauges. *)

val preferred_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  ?metrics:Governor.Metrics.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime
(** {!Store.preferred_models} through the per-view result cache (keyed
    by [obj] and [limit]; only complete enumerations are cached), run by
    the kernel on a cached flat compile of {!prefer_gop}.  [metrics]
    accounts compilations and cache hits as in {!prefer_gop}. *)
