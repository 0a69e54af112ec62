(** The replica side of log shipping: a pull loop over a {!Client}
    connection that keeps a local durable KB in lockstep with a primary.

    A link owns the replica's relationship to its primary: it connects,
    handshakes ({!Protocol.hello}) announcing the local {!Persist.seq}
    and epoch, then either tails the primary's log with [pull] requests
    — applying each shipped batch through {!Kb.Session.apply_batch}
    under the engine lock, so the replica's own WAL tracks its store
    and the result cache is repaired through the same mutation deltas
    the primary used — or bootstraps from a snapshot when the primary has compacted
    past the replica's position.  An empty pull is the heartbeat; the
    loop sleeps [poll_interval] between them.

    {b Epochs.}  Every request carries the replica's fencing term.  A
    primary that replies with a {e higher} epoch is legitimate — the
    link adopts the term durably ({!Persist.adopt_epoch}) and keeps
    tailing; a primary with a {e lower} epoch has been deposed by a
    promotion this replica already witnessed, so the link refuses to
    follow it (fatal, like the server-side ["fenced"] refusal).  After
    each applied batch the link waits for local durability and reports
    the stable-storage horizon on its next pull — the confirmation
    synchronous commit on the primary waits for.

    {b Faults.}  Connection errors and garbled replies drop the
    connection and retry forever under a jittered exponential backoff
    ({!Governor.Backoff}; reset on a successful handshake, logged once
    per distinct message); typed refusals are policy: ["behind"]
    triggers a snapshot bootstrap, ["fenced"], ["handshake"] (protocol
    mismatch, diverged history) and ["proto"] (a primary too old to know
    the verbs) halt replication — the replica keeps serving reads at its
    last applied state.

    {b Promotion} ({!promote}, or {!request_promote} from a signal
    handler) flips the role to ["primary"], bumps the epoch durably
    ({!Persist.bump_epoch}) and severs the stream; the engine's write
    gate reads the role through {!status}, so writes are accepted from
    that point on.  Promotion is atomic with respect to the apply path:
    the engine's promote closure already holds the engine lock, and the
    loop's signal-triggered promotion takes it — a promotion never lands
    in the middle of a shipped batch.

    {b Locking.}  The link applies mutations inside
    {!Engine.exclusively}; nothing here takes the link's own lock
    while holding the engine's, so the engine-side closures (which run
    under the engine lock and call {!status}/{!promote}) cannot
    deadlock. *)

type t

type config = {
  primary : Net.address;
  poll_interval : float;  (** seconds between heartbeat pulls *)
  log : string -> unit;  (** one-line progress/diagnostic sink *)
}
(** A pull asks for at most 512 records; a failed connection is retried
    under a backoff from 50 ms (which also bounds one connect attempt,
    and so how long {!stop} can block) doubling to a 1 s cap. *)

val default_config : Net.address -> config
(** 50 ms poll, silent log. *)

val create :
  ?advertise:string -> engine:Engine.t -> persist:Persist.t -> config -> t
(** Wire a link over the replica's engine and open data directory (the
    engine session's [on_mutation] observer must already append to
    [persist] — the daemon sets that up).  [advertise] is the
    client-reachable address sent with [hello]/[pull], so the primary
    can publish this replica in its [stats] topology; {!Daemon} sends
    its own bound address.  The engine's metrics receive
    [repl_applied]/[repl_bootstraps].  Each link gets a fresh instance
    id ([rid]) identifying it in the primary's ack ledger. *)

val step :
  t ->
  [ `Applied of int  (** a pull shipped and applied this many records *)
  | `Ready  (** progress without records: connected, greeted, or
                bootstrapped — call again *)
  | `Idle  (** in sync; nothing to do until the primary moves *)
  | `Retry of string  (** transient failure; connection dropped *)
  | `Fatal of string  (** replication cannot continue (mismatch,
                          divergence, fencing); reads keep working *)
  | `Stopped  (** the link was stopped or promoted *) ]
(** One protocol step — connect, greet, pull or bootstrap, whichever is
    next.  The background loop is [step] in a loop; tests drive it
    directly for deterministic schedules.  Exceptions from the apply
    path (e.g. fault-injection budgets) propagate. *)

val start : t -> unit
(** Spawn the loop in a background thread (idempotent): it steps until
    stopped, promoted or fatal, sleeping [poll_interval] when idle and
    the (jittered, growing) backoff delay after a transient failure. *)

val stop : t -> unit
(** Stop the loop, interrupt a blocked request, join the thread and
    close the connection.  Idempotent; safe without {!start}. *)

val disconnect : t -> unit
(** Drop the current connection (the loop reconnects on its next step).
    Fault-injection surface for tests. *)

val promote : t -> (string, string) result
(** Leave the stream and become a standalone primary: [Ok "primary"]
    once, after durably bumping the epoch; [Error] if already promoted
    (idempotent — the epoch is bumped exactly once).  Callable from the
    engine's promote closure (under the engine lock). *)

val request_promote : t -> unit
(** Async-signal-safe promotion request: sets a flag and wakes the
    loop, which runs {!promote} under the engine lock — never in the
    middle of an apply batch.  The SIGUSR1 handler. *)

type status = {
  role : string;  (** ["replica"], or ["primary"] after promotion *)
  primary : string;  (** printable address of the configured primary *)
  connected : bool;
  last_applied : int;  (** the local {!Persist.seq} *)
  primary_seq : int;  (** the primary's seq at last contact *)
  lag : int;  (** [max 0 (primary_seq - last_applied)] *)
  epoch : int;  (** the local fencing term ({!Persist.epoch}) *)
  bootstraps : int;  (** snapshot bootstraps performed *)
  connect_attempts : int;  (** connection attempts since creation *)
  last_error : string option;
}

val status : t -> status
