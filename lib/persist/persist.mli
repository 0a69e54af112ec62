(** Durable knowledge bases: a write-ahead log of {!Kb.Store.mutation}s
    plus periodic snapshots in one data directory, and the recovery
    procedure that rebuilds a store from them.

    {b Layout.}  A data directory holds:

    - [wal-<base>.log] — a {!Wal} segment with the mutations numbered
      [base + 1], [base + 2], ...; the newest segment is the one appends
      go to.
    - [snapshot-<seq>.snap] — a full {!Kb.Store.dump} covering the first
      [seq] mutations, written via a [.tmp] file and an atomic rename so
      a snapshot file, once visible, is always complete (a torn one is
      detected by its CRC and skipped).

    {b Invariant.}  When [snapshot-<S>.snap] exists, every mutation
    numbered above [S] lives in [wal-<S>.log] (or a later segment): the
    fresh segment is created and synced {e before} the snapshot is
    renamed into place, so recovery from the newest valid snapshot never
    needs bytes from before that snapshot.

    {b Recovery} ({!open_dir}) sweeps leftover [.tmp] files, loads the
    newest CRC-valid snapshot (skipping corrupt ones), then replays WAL
    segments in base order.  A torn final record — the signature of a
    crash mid-append — is truncated away with a warning in the
    {!recovery} report, never an error: the store comes back as a sound
    prefix of the mutation history.  Only a directory whose snapshot
    chain is entirely corrupt {e and} whose log does not reach back to
    sequence 0 is unrecoverable ({!Diag.Error}).

    One process must own a data directory at a time; nothing enforces
    this (no lock file), matching the single-daemon deployment the
    server targets. *)

module Crc32 = Crc32
module Record = Record
module Wal = Wal

type config = {
  dir : string;  (** the data directory (created if missing) *)
  fsync : bool;
      (** flush every append and snapshot to stable storage before
          acknowledging ([true] for durability; [false] trades crash
          safety of the tail for speed) *)
  snapshot_every : int;
      (** write a snapshot automatically once this many mutations
          accumulate past the last one; [0] disables automatic
          snapshots *)
  group_commit_ms : int;
      (** batch fsyncs: appends within this window share one fsync via a
          background committer ({!Wal.Group}), and durability is reached
          in {!wait_durable} rather than inside {!append}.  [0] keeps
          the synchronous fsync-per-append path; ignored when [fsync]
          is [false]. *)
}

type torn = {
  segment : string;  (** basename of the segment that was cut *)
  offset : int;  (** file offset the segment was truncated to *)
  dropped : int;  (** bytes discarded *)
  detail : string;  (** what was wrong with them *)
}

type recovery = {
  base : int;  (** sequence number the starting snapshot covered *)
  seq : int;  (** sequence number after replay — mutations recovered *)
  epoch : int;
      (** replication epoch: the highest term found in any snapshot or
          segment header (0 for directories that predate fencing) *)
  replayed : int;  (** WAL records applied ([seq - base]) *)
  torn : torn option;  (** set when a torn tail was truncated away *)
  cut : torn option;
      (** set when replay stopped at a requested [stop_at] sequence and
          the history past it was truncated away (point-in-time
          recovery) — deliberate, unlike [torn] *)
  corrupt_snapshots : int;  (** snapshot files skipped for bad CRC *)
  tmp_swept : int;  (** leftover [.tmp] files deleted *)
}

type t

val open_dir :
  ?metrics:Governor.Metrics.t -> ?stop_at:int -> config ->
  t * Kb.Store.t * recovery
(** Recover (or initialise) a data directory and open it for appending.
    The returned store reflects every recoverable mutation; keep
    mutating it {e through} {!append} (or a {!Kb.Session} whose
    [on_mutation] observer calls {!append}) so log and store stay in
    step.  [metrics] receives the [persist_*] / [recovery_*] counters.
    [stop_at] is point-in-time recovery: replay halts after that many
    mutations, the log past it is truncated away (reported in
    [recovery.cut]) and files from the abandoned suffix are deleted, so
    the directory reopens stably at the rewound state.  Raises
    {!Diag.Error} when the directory exists but cannot be recovered
    (including a [stop_at] below every snapshot when the log does not
    reach sequence 0). *)

val append : ?budget:Governor.Budget.t -> t -> Kb.Store.mutation -> unit
(** Log one mutation (which the caller has already applied to the
    store).  Triggers an automatic {!snapshot} when [snapshot_every] is
    reached.  [budget] is fault injection for tests, as in {!Wal}. *)

val snapshot : ?budget:Governor.Budget.t -> t -> int
(** Write a snapshot at the current sequence number and start a fresh
    WAL segment; returns the sequence number covered.  Old files are
    kept (see {!compact}). *)

val compact : t -> int * int
(** {!snapshot}, then delete every segment and snapshot made obsolete by
    it (and stray [.tmp] files).  Returns [(seq, files_deleted)]. *)

val wait_durable : t -> unit
(** Block until every {!append} issued so far is on stable storage.
    Immediate without group commit (appends were synchronous) — with it,
    this is where a writer pays the (shared) fsync latency. *)

(** {1 Replication support}

    A primary serves its log and state to replicas through these; they
    read the same on-disk segments recovery does, so what ships is
    exactly what a local crash recovery would replay. *)

val tail :
  t -> from:int -> max:int ->
  (string * int, [ `Too_old of int ]) result
(** [tail t ~from ~max] returns up to [max] raw framed WAL records
    numbered [from + 1 ...], concatenated byte-for-byte as they sit on
    disk (the receiver walks them with {!Record.unframe}, CRCs intact),
    with the count taken.  It stops adding records once the batch holds
    1 MiB, and always takes at least one, so a pull reply stays near
    that size however large the records are.  [Ok ("", 0)] when the
    log has nothing past [from].  [Error (`Too_old base)] when
    compaction has dropped the requested range — the oldest retained
    segment starts at [base]; fetch a snapshot instead.

    A pull costs the bytes it ships: each segment's frame offsets are
    indexed on its first pull ({!append} extends the active segment's
    index, a rotation starts a fresh one, {!compact} and
    {!install_snapshot} drop the ones they make obsolete), so the
    records are read in one piece from the offset of record
    [from + 1].  Like {!append}, not safe to call concurrently with
    the other operations on [t]. *)

val snapshot_image : t -> int * string
(** The current state as [(seq, image)] where [image] is a
    {!Record.encode_snapshot} encoding — what a replica bootstraps
    from. *)

val install_snapshot : t -> seq:int -> epoch:int -> Kb.Store.dump -> unit
(** Replace the store {e and} the data directory with a snapshot: the
    image is written durably, a fresh WAL segment starts at [seq],
    every file from the old timeline is deleted, and the live store is
    {!Kb.Store.restore}d in place.  The replica bootstrap path.
    [epoch] raises the local term if greater (never lowers it). *)

val seq : t -> int
(** Mutations logged so far (recovered + appended). *)

(** {1 Epoch fencing}

    The epoch is a monotonically increasing term stamped into every
    snapshot and segment header.  Promotion bumps it; replication
    carries it on the wire so a deposed primary (lower term) can be
    refused.  Both mutators persist the new term immediately via
    {!snapshot}, so a crash cannot roll an epoch back. *)

val epoch : t -> int
(** The current replication epoch. *)

val bump_epoch : t -> int
(** Increment the epoch durably (promotion); returns the new term. *)

val adopt_epoch : t -> int -> unit
(** Raise the local epoch to a term learned from upstream; durable.
    A term at or below the current one is a no-op. *)

val recovery : t -> recovery
(** The report from the {!open_dir} that produced this handle. *)

val close : t -> unit
(** Flush (stopping the group committer if any) and close the active
    segment. *)
