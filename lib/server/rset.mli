(** A self-healing replica-set client: one logical connection over a
    set of servers (a primary and its replicas, any depth of chaining).

    The caller hands over seed addresses and raw {!Wire} requests; the
    set routes them by the verb's {!Wire.classify} class — {e writes}
    (the mutating verbs [load], [define], [add_rule], [remove_rule],
    [new_version], [set_preference] and [clear_preference], and
    [snapshot], [promote], [shutdown] and [batch]) to the node it
    believes is the primary, {e reads} ([query], [models], [explain],
    [stats], [version], the replication verbs, and requests that do not
    decode) round-robin over every node — and heals around faults:

    - a typed ["read_only"] or ["fenced"] refusal of a write carries the
      refusing node's idea of the primary; the set follows the redirect
      (learning addresses it was never seeded with), bounded to a few
      hops so two confused nodes cannot bounce a request forever — when
      the hop budget runs out the typed error is returned as the answer;
    - a connection failure — or a typed ["draining"] response from a
      server mid-shutdown — drops that node's cached connection,
      forgets it as primary and moves to the next node;
    - when a whole pass over the set fails and a [retry] budget was
      given, the set sleeps a jittered exponential backoff
      ({!Governor.Backoff}, reset on any success) and sweeps again until
      the deadline — the ride-out for a failover in progress.

    Connections are cached per node and re-established lazily.  Not
    thread-safe: one [t] per thread (like {!Client}). *)

type t

val create : Net.address list -> t
(** [create seeds] with at least one seed address (raises
    [Invalid_argument] on an empty list; duplicates are collapsed).
    One node's connection attempt is bounded at 50 ms; the
    between-sweep backoff starts at 50 ms and is capped at 1 s. *)

val request_line :
  ?retry:float -> t -> string -> (Wire.json, string) result
(** Parse one raw request line and route it (see the routing rules
    above); [Error] on unparsable input, without touching the network.
    [retry] is the total time budget for riding out unreachable nodes
    (default [0.]: a single sweep over the set).  [Ok] carries whatever
    response the chosen server gave — including typed error responses
    that are the answer (a solver diagnostic, an exhausted redirect);
    [Error] means no node could be reached within the budget. *)

val primary : t -> string option
(** The node the set currently believes is the primary, if any write
    has established one. *)

val close : t -> unit
(** Close every cached connection (the set remains usable; connections
    re-open lazily). *)
