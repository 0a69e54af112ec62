(** One write-ahead-log segment file: the {!Record} codec put on disk.

    A segment [wal-<base>.log] holds the mutations numbered [base + 1],
    [base + 2], ... (the numbering is implicit — records carry no
    sequence field; the header carries [base]).  Appends go through an
    open descriptor; reads parse a whole file and report exactly how far
    the valid prefix extends, so recovery can truncate a torn tail.

    {b Fault injection.}  [append] and [create] take an optional
    {!Governor.Budget.t} and tick it before {e every} low-level write (in
    16-byte chunks when a budget is armed), so
    [Governor.Budget.with_trip_at] can kill the process image at any
    byte boundary of a record — the crash-recovery tests sweep every such
    point.  Without a budget, writes go in large chunks. *)

type t

val create : ?budget:Governor.Budget.t -> fsync:bool -> base:int ->
  epoch:int -> string -> t
(** [create ~fsync ~base ~epoch path] creates (or truncates) a segment
    and writes its header (base sequence and replication epoch). *)

val open_append : path:string -> t
(** Open an existing segment for appending (no validation — recovery has
    already read and possibly truncated it). *)

val append :
  ?budget:Governor.Budget.t -> fsync:bool -> t -> string -> int
(** [append ~fsync t payload] frames and appends one record; returns the
    bytes written.  [fsync] flushes to stable storage before
    returning. *)

val close : t -> unit

val write_file :
  ?budget:Governor.Budget.t -> fsync:bool -> path:string -> string -> unit
(** Write a whole file image from scratch (snapshot temp files), chunked
    and budget-ticked exactly like {!append}. *)

(** {1 Reading} *)

type replay = {
  mutations : (int * Kb.Store.mutation) list;
      (** (frame start offset, mutation), in log order *)
  good_end : int;  (** offset just past the last valid record *)
  size : int;  (** file size as read *)
  torn : string option;
      (** why the bytes in [good_end, size) were given up on *)
  epoch : int;  (** replication epoch from the segment header *)
}

val read : path:string -> expect_base:int -> (replay, string) result
(** Parse a whole segment.  [Error] only for an unreadable file or a
    header that is missing, malformed or carries the wrong base — in
    which case the caller treats the whole file as torn.  Everything
    after the header degrades gracefully: the valid prefix comes back in
    [mutations] and a bad tail is described in [torn], never raised. *)

val truncate : path:string -> int -> unit
(** Cut a file at an offset (recovery dropping a torn tail). *)

(** {1 Group commit}

    A background committer that batches fsyncs: appenders write records
    with [fsync:false], report the sequence number they reached with
    {!Group.wrote}, and block in {!Group.wait} until the committer has
    flushed past it.  After noticing work the committer gathers appends
    for up to the configured window — but flushes immediately once a
    writer blocks on durability, so the window bounds added latency
    without taxing a fast disk; concurrent waiters still share fsyncs
    because appends landing during an in-flight flush ride the next
    one. *)

module Group : sig
  type group

  val create : window_ms:int -> ?on_fsync:(unit -> unit) -> t -> group
  (** Start the committer over the given active segment.  [on_fsync]
      runs (with the group lock held) after each flush — metrics
      accounting. *)

  val attach : group -> t -> unit
  (** Point the committer at a new active segment after a rotation.
      Call {!flush} first: durability of the old segment is the
      caller's responsibility. *)

  val wrote : group -> seq:int -> unit
  (** Record that the log now contains everything up to [seq] and wake
      the committer. *)

  val wait : group -> unit
  (** Block until everything {!wrote} so far is durable (returns
      immediately once {!stop} has run). *)

  val flush : group -> unit
  (** Synchronously flush pending appends on the caller's thread (used
      before segment rotation and on close). *)

  val stop : group -> unit
  (** Final flush, then terminate and join the committer.  Idempotent. *)
end
