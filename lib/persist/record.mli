(** The durable record codec: hand-rolled binary encodings for WAL
    records and snapshots, in the same spirit as the wire codec
    ({!Server.Wire}) — pure, total on the decode side, and fuzzable
    without touching a file descriptor.

    {b Grammar} (all integers little-endian; [str] is a [u32] length
    followed by that many bytes; [list x] is a [u32] count followed by
    that many [x]):

    {v
    frame     = u32 payload_len | u32 crc32(payload) | payload
    payload   = 0x01 | str name | list str isa   | list str rules   define
              | 0x02 | str obj  | str rule                          add_rule
              | 0x03 | str obj  | str rule                          remove_rule
              | 0x04 | str name | u8 has_rules | list str rules     new_version
              | 0x05 | str src                                      load
              | 0x06 | str rule | str over                          set_preference
              | 0x07 | str rule | str over                          clear_preference
    wal file  = "OLPWAL2\n" | u64 base_seq | u64 epoch | frame*
    snapshot  = "OLPSNAP3" | u32 len | u32 crc32 | u64 seq | u64 epoch
              | list (str name | list str parents | list str rules)
              | list (str base | str latest)
              | list (str base | u32 count)
              | list (str rule | str over)
    v}

    Version-1 files ("OLPWAL1\n" / "OLPSNAP1"), written before the
    replication epoch existed, omit the [u64 epoch] field; decoders
    accept them and report epoch 0, so a pre-fencing data directory
    upgrades in place on its first snapshot.  "OLPSNAP2" snapshots,
    written before rule preferences existed, end at the version
    counters; decoders accept them and report an empty preference
    list.

    Rules and literals travel as surface syntax ({!Logic.Rule.to_string}),
    which the printers guarantee re-parses to an equal rule; the decoder
    re-parses them, so a decoded mutation is ready to {!Kb.Store.apply}.
    Decoders never raise: a short buffer, a CRC mismatch, an unknown tag,
    a length past the end of the input or an unparsable rule all come
    back as [Error].  Every length is checked against the bytes present,
    so no size cap applies: the writer refuses only what a [u32] cannot
    hold. *)

(** {1 Mutation payloads} *)

val encode_mutation : Kb.Store.mutation -> string
val decode_mutation : string -> (Kb.Store.mutation, string) result

(** {1 Record framing} *)

val frame : string -> string
(** Wrap a payload in the length/CRC frame. *)

type unframed =
  | Frame of { payload : string; next : int }
      (** a whole, CRC-valid frame; [next] is the offset just past it *)
  | End  (** clean end of input exactly at [pos] *)
  | Torn of string  (** anything else: short header, short payload or
                        CRC mismatch (the detail says which) *)

val unframe : string -> pos:int -> unframed

(** {1 WAL file header} *)

type wal_head = {
  wal_base : int;  (** base sequence number from the header *)
  wal_epoch : int;  (** replication epoch (0 for version-1 files) *)
  wal_head_len : int;  (** bytes the header occupies in this file *)
}

val wal_header : base:int -> epoch:int -> string
val decode_wal_header : string -> (wal_head, string) result
(** Decode a v2 or v1 header from the front of a file image. *)

(** {1 Snapshots} *)

val encode_snapshot : seq:int -> epoch:int -> Kb.Store.dump -> string
(** The whole snapshot file image (magic, frame, payload). *)

val decode_snapshot : string -> (int * int * Kb.Store.dump, string) result
(** [(seq, epoch, dump)] from a whole snapshot file image (v2 or v1;
    the latter reports epoch 0). *)
