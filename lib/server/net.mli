(** Sockets for the wire protocol, once for every endpoint: the address
    grammar, listening and connecting, blocking writes, and the one
    incremental line framer that the daemon's connection readers and the
    {!Client} both read with. *)

type address = [ `Unix of string | `Tcp of string * int ]

val parse_address : string -> address
(** The ADDR grammar shared by the CLI and the replica-set client:
    [HOST:PORT] is TCP, a bare number is a local TCP port, [unix:PATH]
    (the printable form — so redirects round-trip) or anything else a
    Unix socket path. *)

val address_to_string : address -> string
(** Printable form (["unix:PATH"] or ["HOST:PORT"]) — the form used in
    [read_only] redirects and [stats]. *)

val listen : address -> Unix.file_descr * address
(** Bind and listen (a stale Unix socket path is unlinked first; TCP
    sets [SO_REUSEADDR]).  Returns the bound address: a requested TCP
    port [0] resolves to the actual ephemeral port.  Raises
    [Unix.Unix_error]. *)

val unlisten : Unix.file_descr * address -> unit
(** Close a listener from {!listen} and unlink its Unix socket path;
    never raises. *)

val connect : retry:float -> address -> (Unix.file_descr, string) result
(** Connect, retrying a refused or not-yet-bound address for [retry]
    seconds (50 ms between attempts; [0.]: one attempt). *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte (raises [Unix.Unix_error]). *)

type reader
(** Line framing over one descriptor.  Each byte is scanned for the
    newline once, however the stream is split into reads, so reading a
    line costs time linear in its length. *)

val reader : ?max:int -> Unix.file_descr -> reader
(** [max] caps a line's length in bytes (default: no cap). *)

val read_line :
  reader ->
  [ `Line of string  (** one line, without its newline and a trailing CR *)
  | `Oversized of int
    (** a line passed [max]: reported once, with the bytes seen so far,
        and the rest of it up to the next newline is discarded *)
  | `Eof  (** the peer closed the connection *)
  | `Error of string ]
(** The next line, reading from the descriptor only when no whole line
    is buffered.  Bytes after an unterminated last line are dropped at
    end of file. *)
