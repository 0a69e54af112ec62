(** The socket server: accept loop, per-connection readers, worker pool,
    graceful drain.

    A daemon listens on a Unix-domain or TCP socket and speaks the
    {!Wire} protocol: each accepted connection gets a reader thread that
    frames lines ({!Net.reader}, capped at {!Wire.default_max_len}),
    decodes requests and submits them to the bounded
    {!Pool}; workers serve them through the shared {!Engine} and write
    the response line back (one response per request; pipelined clients
    should correlate by ["id"]).  Undecodable lines, oversized frames and
    a full queue are answered with typed error responses on the spot —
    a client connection is never dropped in response to bad input.

    {b Drain.}  {!stop} (also triggered by the ["shutdown"] verb and by
    SIGINT/SIGTERM once {!install_signal_handlers} ran) makes the accept
    loop wind down: no new connections, queued and in-flight requests
    complete and their responses are written, then connections are shut
    down, the listener is closed (and a Unix socket path unlinked) and
    {!serve} returns.  New requests arriving on live connections during
    the drain are answered with a ["draining"] error. *)

type config = {
  address : Net.address;
      (** TCP port [0] picks an ephemeral port (see {!address}) *)
  workers : int;
  parallel : Pool.backend;
      (** worker flavour: [`Threads] (the default everywhere) or
          [`Domains] for truly parallel OCaml 5 domains (the
          [--parallel domains] flag) *)
  queue : int;  (** request-queue capacity *)
  caps : Engine.caps;  (** per-request budget caps *)
  persist : Persist.config option;
      (** durable KB: recover the store from this data directory at
          startup and log every mutation to it ([None] = in-memory
          only; see [docs/PERSISTENCE.md]) *)
  replicate_on : Net.address option;
      (** also listen on this address for replicas ([hello]/[pull]/
          [fetch_snapshot] traffic; same wire protocol, dedicated
          address so replica and client traffic can be segregated);
          requires [persist] — the log is what ships.  A server that is
          itself a replica may also set this: it re-serves its own WAL,
          forming a chained (tree) topology *)
  sync : Engine.sync option;
      (** synchronous commit: hold each write's acknowledgement until
          this many replicas confirmed durability (see
          {!Engine.sync}) *)
  replica_of : Link.config option;
      (** run as a read-only replica of this primary: {!create} builds
          the {!Link} (advertising the bound {!address}) and the
          engine's replication hooks, {!serve} starts it and stops it
          in the drain; requires [persist].  [promote] (the verb, or
          SIGUSR1 once {!install_signal_handlers} ran) detaches it *)
}

type t

val create : config -> t
(** Bind and listen (raises [Unix.Unix_error] on failure, e.g. an
    address already in use).  With [persist] set, the KB is recovered
    from the data directory (raises {!Governor.Diag.Error} when that is
    impossible) and every mutation is logged before its response is
    sent; otherwise the engine starts with an empty in-memory KB.  A
    server with [replica_of] or [replicate_on] set gets the engine's
    replication hooks ({!Engine.set_replication}): the [stats] object
    [replication] lists [role, listener, epoch, members] on a primary
    and [role, primary, epoch, last_applied, primary_seq, lag,
    connected, connect_attempts, members, listener] on a replica.
    Raises [Invalid_argument] for [replica_of] without [persist].
    Ignores SIGPIPE process-wide, so a write to a disconnected peer
    becomes an error handled per-connection. *)

val address : t -> Net.address
(** The bound address — for TCP this resolves a requested port [0] to
    the actual ephemeral port. *)

val engine : t -> Engine.t

val recovery : t -> Persist.recovery option
(** The recovery report from startup, when [persist] was set. *)

val persist_handle : t -> Persist.t option
(** The open persistence handle.  Appending outside the engine lock
    races the workers — use {!Engine.exclusively}. *)

val replication_address : t -> Net.address option
(** The bound replication listener (with an ephemeral TCP port
    resolved), when [replicate_on] was set. *)

val serve : t -> unit
(** Run the accept loop until {!stop}; drains before returning. *)

val stop : t -> unit
(** Request shutdown (thread- and signal-safe, idempotent). *)

val install_signal_handlers : t -> unit
(** SIGINT/SIGTERM trigger {!stop}; on a replica, SIGUSR1 requests
    promotion ({!Link.request_promote}). *)
