(** Named monotonic counters and high-water gauges for server-side
    observability.

    A registry is a flat map from names to integers, safe to update from
    several threads and domains: each counter is an atomic cell, so
    bumping one is a single lock-free read-modify-write and never blocks
    a concurrent reader — the lock-free snapshot-read path of the query
    server bumps these counters without holding any lock.  A registry
    mutex serializes only the first registration of each name.  The
    query server
    threads one registry through its accept loop, worker pool and request
    engine, and reports a {!snapshot} through the wire protocol's [stats]
    verb — so the counters must be cheap enough to bump on every request
    and deterministic given a fixed request history (no clocks, no
    randomness).

    Counters ([incr], [add]) only grow; gauges ([gauge_max]) record the
    high-water mark of a level that rises and falls (queue depth, active
    workers).  Reading a name that was never written returns 0. *)

type t

val create : unit -> t
(** Empty registry. *)

val incr : t -> string -> unit
(** [incr m name] adds 1 to the counter [name]. *)

val add : t -> string -> int -> unit
(** [add m name n] adds [n] (which must be non-negative) to [name]. *)

val gauge_max : t -> string -> int -> unit
(** [gauge_max m name level] records [level] if it exceeds the recorded
    high-water mark of [name]. *)

val get : t -> string -> int
(** Current value ([0] for an unknown name). *)

val snapshot : t -> (string * int) list
(** All (name, value) pairs, sorted by name.  Each value is read
    atomically; a snapshot taken while no updates are in flight (e.g.
    a sequential test driving the server one request at a time) is
    exact, which is what keeps the [stats] verb deterministic. *)
