type address = [ `Unix of string | `Tcp of string * int ]

(* ADDR grammar shared by the CLI flags and the replica-set client:
   HOST:PORT is TCP, a bare number is a local TCP port, "unix:PATH"
   (the printable form redirects and stats carry) or anything else a
   Unix socket path. *)
let parse_address s : address =
  let is_digits x =
    x <> "" && String.for_all (fun c -> c >= '0' && c <= '9') x
  in
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    `Unix (String.sub s 5 (String.length s - 5))
  else
    match String.rindex_opt s ':' with
    | Some i ->
      let host = String.sub s 0 i
      and port = String.sub s (i + 1) (String.length s - i - 1) in
      if host <> "" && is_digits port then `Tcp (host, int_of_string port)
      else `Unix s
    | None ->
      if is_digits s then `Tcp ("127.0.0.1", int_of_string s) else `Unix s

let address_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr_of = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) ->
    Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let socket = function
  | `Unix _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | `Tcp _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0

let listen address =
  let fd = socket address in
  (match address with
  | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  (try Unix.bind fd (sockaddr_of address) with e -> Unix.close fd; raise e);
  Unix.listen fd 64;
  let bound =
    match address with
    | `Unix _ as a -> a
    | `Tcp (host, _) -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> `Tcp (host, port)
      | _ -> address)
  in
  (fd, bound)

let unlisten (fd, address) =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match address with
  | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ()

let connect ~retry address =
  let deadline = Unix.gettimeofday () +. retry in
  let rec attempt () =
    let fd = socket address in
    match Unix.connect fd (sockaddr_of address) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () < deadline then begin
        ignore (Unix.select [] [] [] 0.05);
        attempt ()
      end
      else Error (Unix.error_message e)
  in
  attempt ()

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

(* ------------------------------------------------------------------ *)
(* Line framing                                                        *)
(* ------------------------------------------------------------------ *)

(* [buf.[start .. len)] holds the bytes not yet returned; none of
   [buf.[start .. scanned)] is a newline, so each byte is scanned once.
   While [discarding], the bytes of an oversized line are dropped as
   they arrive, up to its newline. *)
type reader = {
  fd : Unix.file_descr;
  max : int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable scanned : int;
  mutable len : int;
  mutable discarding : bool;
}

let chunk = 65536

let reader ?(max = max_int) fd =
  { fd;
    max;
    buf = Bytes.create chunk;
    start = 0;
    scanned = 0;
    len = 0;
    discarding = false
  }

(* Make room for one more read at [len]: slide the pending bytes to the
   front, and grow the buffer only when they fill most of it.  With
   nothing pending, a buffer grown for one long line is dropped, so a
   connection does not keep its largest line's memory. *)
let make_room r =
  let pending = r.len - r.start in
  if pending = 0 && Bytes.length r.buf > chunk then begin
    r.buf <- Bytes.create chunk;
    r.start <- 0;
    r.scanned <- 0;
    r.len <- 0
  end
  else if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 pending;
    r.scanned <- r.scanned - r.start;
    r.start <- 0;
    r.len <- pending
  end;
  if Bytes.length r.buf - r.len < chunk then begin
    let bigger = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 bigger 0 pending;
    r.buf <- bigger
  end

let rec newline buf i len =
  if i >= len then None
  else if Bytes.unsafe_get buf i = '\n' then Some i
  else newline buf (i + 1) len

let rec read_line r =
  match newline r.buf r.scanned r.len with
  | Some i ->
    let start = r.start in
    r.start <- i + 1;
    r.scanned <- i + 1;
    if r.discarding then begin
      r.discarding <- false;
      read_line r
    end
    else if i - start > r.max then `Oversized (i - start)
    else
      let stop =
        if i > start && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i
      in
      `Line (Bytes.sub_string r.buf start (stop - start))
  | None ->
    r.scanned <- r.len;
    if r.discarding then begin
      r.start <- r.len;
      fill r
    end
    else if r.len - r.start > r.max then begin
      let seen = r.len - r.start in
      r.discarding <- true;
      r.start <- r.len;
      `Oversized seen
    end
    else fill r

and fill r =
  make_room r;
  match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
  | 0 -> `Eof
  | n ->
    r.len <- r.len + n;
    read_line r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r
  | exception Unix.Unix_error (e, _, _) -> `Error (Unix.error_message e)
