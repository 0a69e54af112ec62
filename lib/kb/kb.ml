(** Knowledge bases: the object-oriented reading of ordered logic
    programming (paper, Section 5).

    The base API ({!Store}) is included here, so [Kb.create], [Kb.define],
    [Kb.query] &c. work as before; {!Session} layers a memoizing result
    cache over a store for the repeated-query workload of the query
    server ([olp serve]). *)

include Store

(** Memoizing sessions (per-version snapshot views whose result caches
    are carried across writes by delta eviction, with
    hit/miss/invalidation counters); see {!Session}. *)
module Session = Session

(** The raw store layer as a named module (its API is also spliced
    directly onto [Kb] by the [include] above); persistence code names
    mutation and dump types as [Kb.Store.t] paths. *)
module Store = Store
