(** Search-effort counters shared by the enumeration engines.

    A search engine that accepts a [?stats] argument fills one of these in
    as it runs (the counters are cumulative: pass a freshly {!create}d
    record, or call {!reset}, to measure a single run).  The counters are
    the currency of the benchmark trajectory ([BENCH_*.json]) and of the
    differential tests comparing the pruned searches against their naive
    oracles:

    - [nodes]: search-tree nodes visited (branch points and leaves; one
      budget tick is paid per node);
    - [leaves]: complete assignments that reached the final model check;
    - [prunes]: subtrees cut before reaching any leaf (propagation
      conflict, lost support, a failed consistency filter, or a learned
      nogood firing before the subtree was entered);
    - [forced]: branch decisions avoided because propagation had already
      fixed the atom's value;
    - [models]: models emitted.

    The second group is filled only by the compiled kernel ([Solve]);
    the map-walking engines leave it at zero:

    - [propagations]: literals derived by the incremental propagator;
    - [conflicts]: propagation conflicts analysed;
    - [learned]: nogoods recorded from conflict analysis;
    - [evicted]: learned nogoods dropped by the bounded store's
      activity-based eviction;
    - [restarts]: solver restarts (state rebuilt, search position
      replayed). *)

type t = {
  mutable nodes : int;
  mutable leaves : int;
  mutable prunes : int;
  mutable forced : int;
  mutable models : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable learned : int;
  mutable evicted : int;
  mutable restarts : int;
}

val create : unit -> t
(** All counters at zero. *)

val has_solver : t -> bool
(** Whether any compiled-kernel counter is nonzero. *)

val pp : Format.formatter -> t -> unit
(** The search counters; the solver counters are appended only when one
    of them moved, so the printed line for the pruned/naive engines is
    unchanged. *)
