(** Knowledge bases: the object-oriented reading of ordered logic
    programming (paper, Section 5).

    The session API ({!Session}) is included here, so [Kb.create],
    [Kb.define], [Kb.query] &c. go through the memoizing, incrementally
    repaired session that the query server ([olp serve]) runs too. *)

include Session

(** Memoizing sessions: per-version snapshot views, each holding one
    cache map from viewpoint object to that viewpoint's cached state,
    carried across writes by delta eviction, with hit/miss/invalidation
    counters; see {!Session}. *)
module Session = Session

(** The state layer: objects, isa links, rules, preferences, versions,
    reified mutations and dumps.  Persistence and replication name
    mutation and dump types as [Kb.Store.t] paths. *)
module Store = Store
