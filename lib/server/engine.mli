(** The request engine: one {!Kb.Session} serving decoded {!Wire}
    requests — lock-free snapshot reads, writes serialized on one io
    lock.

    The engine owns everything between the wire and the solver: budget
    clamping, dispatch, response encoding, and the guarantee that {e no
    exception escapes} — solver diagnostics, parse errors and budget
    trips all come back as structured responses, so a worker thread can
    run [handle] on anything the decoder accepted.

    {b Budget clamping.}  A request may ask for ["timeout_ms"] and
    ["max_steps"]; the server's {!caps} bound both (the effective limit
    is the minimum of the request's and the cap, and the cap applies
    even when the request asks for nothing).  A budget trip yields a
    ["partial"] response: for [models] it carries the models found so
    far (a sound prefix, per the enumeration-order contract); for
    [query]/[explain]-style operations, which have no sound partial
    answer, it carries only the machine-readable reason.

    {b Concurrency.}  Each verb's {!Wire.classify} access decides its
    path.  Read verbs ([query]/[models]/[explain]/[stats]/[version])
    take no lock at all: they pin the session's current published
    snapshot with one atomic read and compute against that frozen
    version, so any number of workers — threads or domains — serve
    reads in parallel, unaffected by writers.  Mutating verbs
    ([load]/[define]/[add_rule]/[remove_rule]/[new_version]/
    [set_preference]/[clear_preference]) parse their program text
    concurrently (the ["writers_peak"] gauge records the deepest overlap
    of writers in flight) and then serialize only their store-apply on
    the engine's io lock, which also orders WAL appends; durability and
    synchronous-commit waits happen outside every lock.  Replication
    verbs ([hello]/[pull]/[fetch_snapshot]/[promote]/[snapshot]) take
    the io lock.  A [batch] frame runs each item through its verb's full
    path in order and returns one envelope (["batches"]/["batch_items"]
    count frames and items).  The [stats] verb reports the session's
    cache counters and a deterministic snapshot of the server
    {!Governor.Metrics} registry. *)

type caps = {
  timeout : float option;
      (** per-request wall-clock cap, seconds ([None] = unlimited) *)
  steps : int option;  (** per-request step cap *)
}

val default_caps : caps
(** 30-second timeout cap, unlimited steps. *)

type t

type persistence = {
  snapshot : unit -> int;
      (** force a durable snapshot; returns the sequence number covered *)
  seq : unit -> int;  (** mutations logged so far *)
  epoch : unit -> int;
      (** current replication epoch (fencing term; see
          {!Persist.epoch}) *)
  wait_durable : unit -> unit;
      (** block until every logged mutation is on stable storage (the
          group-commit rendezvous; a no-op without group commit) *)
  tail : from:int -> max:int -> (string * int, int) result;
      (** raw framed WAL records after [from] ([Error oldest] when
          compacted away; see {!Persist.tail}) *)
  snapshot_image : unit -> int * string;
      (** current state as a snapshot encoding, for replica bootstrap *)
}
(** The engine's view of the persistence layer — closures, so [Server]
    needs no dependency on [Persist]; the daemon wires them to the
    corresponding {!Persist} operations under the engine lock. *)

type replication = {
  role : unit -> string;  (** ["primary"] or ["replica"] *)
  primary : unit -> string option;
      (** printable address of the primary (for the [Read_only]
          redirect); [None] on a primary *)
  details : unit -> (string * Wire.json) list;
      (** role-specific [stats] fields, in a fixed, deterministic
          order *)
  promote : unit -> (string, string) result;
      (** leave the replication stream and accept writes; [Ok role]
          with the new role, [Error] with a reason *)
}
(** The engine's view of the replication layer, injected by [bin] after
    the daemon is up ({!set_replication}).  With it set, write verbs on
    a ["replica"] role bounce with a typed [Read_only] diagnostic
    (["read_only"] error kind on the wire, with the primary's address in
    the error object for client-side redirects), [stats] gains a
    ["replication"] object, and the [promote] verb works. *)

type sync = {
  replicas : int;  (** confirmations required per acknowledged write *)
  timeout_ms : int;  (** degrade-to-diagnostic deadline *)
}
(** Synchronous-commit policy.  With it set, an acknowledged write is
    held until [replicas] distinct replica instances have confirmed (via
    the [durable] field piggybacked on their pulls, or their [hello]
    sequence) that the write's WAL sequence is on their stable storage.
    If the confirmations do not arrive within [timeout_ms], the response
    degrades to a typed ["sync_timeout"] error ({!Ordered.Diag.Sync_timeout}):
    the mutation {e is} applied and locally durable — only its
    replication guarantee is weaker than requested. *)

val create :
  ?caps:caps ->
  ?metrics:Governor.Metrics.t ->
  ?extra_stats:(unit -> (string * Wire.json) list) ->
  ?session:Kb.Session.t ->
  ?persistence:persistence ->
  ?sync:sync ->
  unit ->
  t
(** [extra_stats] is appended to the ["server"] object of the [stats]
    response (the daemon injects worker/queue configuration).
    [session] supplies a pre-built session (the daemon passes one whose
    store was recovered from disk); the default is a fresh empty one.
    With [persistence] wired, the [snapshot] verb works and [stats]
    reports ["persist_seq"]; without it the verb is an ["input"]
    error. *)

val session : t -> Kb.Session.t
val metrics : t -> Governor.Metrics.t

val replica_members : t -> string list
(** Advertised (client-reachable) addresses of the replicas that have
    completed a handshake or pulled from this server, sorted and
    deduplicated — the machine-readable replica-set topology the daemon
    publishes under [stats.replication.members].  Replicas that did not
    send an ["addr"] are invisible here. *)

val set_replication : t -> replication -> unit
(** Install the replication hooks (one slot; a second call replaces the
    first). *)

val exclusively : t -> (unit -> 'a) -> 'a
(** Run [f] holding the engine's io lock (the lock the write verbs'
    apply phase and the replication verbs serialize on) — the
    replication apply path uses this to replay shipped mutations without
    racing the request workers.  Lock-free readers are {e not} excluded:
    they keep serving the last published snapshot; publish a new one
    (e.g. {!Kb.Session.invalidate}) to make changes visible.  Do not
    call {!handle} (or anything that re-locks) from inside [f]. *)

val handle : t -> Wire.request -> Wire.json
(** Serve one request.  Never raises.  Updates the metrics counters
    ["served"], ["ok"], ["partials"], ["errors"] (per batch {e item} for
    a [batch] frame, plus ["batches"]/["batch_items"] for the frame
    itself). *)

val handle_line : t -> string -> Wire.json
(** Decode and serve one raw request line; decode failures become
    ["proto"] error responses (counted as ["proto_errors"]). *)
