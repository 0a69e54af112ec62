(** The replica's half of the replication protocol: builders for the
    [hello]/[pull]/[fetch_snapshot] requests and decoders for their
    replies.  Pure — no sockets — so the codec round-trips are testable
    without a server.

    Every request carries the sender's replication [epoch] (the fencing
    term) and the replies echo the server's, so either side can detect
    that it is talking across a promotion; requests also carry the
    replica's instance id [rid], and pulls a [durable] sequence number —
    the piggybacked durability confirmation synchronous commit waits
    for.

    Decoders distinguish a {e refusal} (the primary answered with a
    typed error — policy lives in {!Link}, e.g. a ["behind"] refusal
    triggers a snapshot bootstrap, a ["fenced"] one is fatal) from a
    {e garbled} reply (the bytes are not the protocol — the peer is the
    wrong kind of server or the stream is corrupt). *)

type refusal = { kind : string; message : string; epoch : int option }
(** A typed error response: the wire error [kind] and its message.
    ["fenced"] refusals also carry the refusing server's epoch, so the
    link can distinguish a primary that moved ahead (re-handshake and
    adopt the term) from one that was deposed (never follow it). *)

(** {1 Requests} *)

val hello :
  ?addr:string -> seq:int -> epoch:int -> rid:string -> unit ->
  Wire.json
(** Handshake announcing our last applied sequence number, our
    {!Wire.protocol_revision}, the highest epoch we have seen
    and our instance id.  [addr] advertises the address we serve
    clients on, for the primary's [stats] topology. *)

val pull :
  ?addr:string ->
  from:int -> max:int -> epoch:int -> rid:string -> durable:int ->
  unit ->
  Wire.json
(** Ask for up to [max] records after [from].  An empty pull doubles as
    a heartbeat; [durable] confirms our stable-storage horizon and
    [addr] (re)advertises our client-facing address. *)

val fetch_snapshot : epoch:int -> Wire.json

(** {1 Replies} *)

type hello_reply = {
  role : string;  (** the primary's current role *)
  seq : int;  (** the primary's sequence number *)
  epoch : int;  (** the primary's replication epoch *)
  action : [ `Tail | `Snapshot ];
      (** what the primary tells us to do: tail the log, or bootstrap
          from a snapshot because our position was compacted away *)
}

val decode_hello :
  Wire.json ->
  (hello_reply, [ `Refused of refusal | `Garbled of string ]) result

val decode_pull :
  Wire.json ->
  ( int * int * Kb.Store.mutation list,
    [ `Refused of refusal | `Garbled of string ] )
  result
(** [(primary_seq, primary_epoch, mutations)] — the shipped records
    decoded through the same {!Persist.Record} walk crash recovery uses
    (CRCs verified end to end; a count mismatch or torn frame is
    [`Garbled]). *)

val decode_snapshot :
  Wire.json ->
  ( int * int * Kb.Store.dump,
    [ `Refused of refusal | `Garbled of string ] )
  result
(** [(seq, epoch, dump)] from a bootstrap image. *)
