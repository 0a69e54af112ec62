(** A minimal blocking client for the wire protocol: one connection,
    request lines out, response lines in.  Used by [olp call] and by the
    serving benchmark; errors are values, not exceptions. *)

type t

val connect : ?retry:float -> Net.address -> (t, string) result
(** Connect to a server.  [retry] keeps retrying a refused or
    not-yet-bound address for that many seconds (50 ms between attempts)
    — the standard way to ride out a server that is still starting. *)

val request_line : t -> string -> (Wire.json, string) result
(** Send one raw request line (a newline is appended) and read the one
    response line, parsed.  Responses have no size cap (the daemon caps
    requests only).  [Error _] on connection failure or an unparsable
    response. *)

val request : t -> Wire.json -> (Wire.json, string) result
(** Encode and send a request object. *)

val shutdown : t -> unit
(** Shut both directions of the socket down without closing the
    descriptor: a thread blocked in {!request} sees end-of-file and
    returns an error.  The replication link's stop path uses this to
    interrupt an in-flight poll from another thread. *)

val close : t -> unit
