module M = Governor.Metrics

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

type config = {
  address : address;
  workers : int;
  parallel : Pool.backend;
  queue : int;
  caps : Engine.caps;
  persist : Persist.config option;
  replicate_on : address option;
  sync : Engine.sync option;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound : address;
  repl : (Unix.file_descr * address) option;  (* replication listener *)
  engine : Engine.t;
  persist : (Persist.t * Persist.recovery) option;
  pool : Pool.t;
  stop_r : Unix.file_descr;  (* self-pipe: select wake-up for stop *)
  stop_w : Unix.file_descr;
  mutable stopping : bool;
  lock : Mutex.t;  (* guards [stopping], [conns], [readers] *)
  mutable conns : Unix.file_descr list;
  mutable readers : Thread.t list;
  mutable on_drain : (unit -> unit) option;
}

let engine t = t.engine
let address t = t.bound
let recovery t = Option.map snd t.persist
let persist_handle t = Option.map fst t.persist
let replication_address t = Option.map snd t.repl
let on_drain t f = t.on_drain <- Some f

let sockaddr_of = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) ->
    Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let listen address =
  let domain =
    match address with `Unix _ -> Unix.PF_UNIX | `Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
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

let create config =
  (* a write to a peer that already hung up must surface as the EPIPE
     [send] drops, not as a SIGPIPE that kills the whole process — also
     when the daemon runs inside a host program rather than [olp serve] *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd, bound = listen config.address in
  let repl =
    match config.replicate_on with
    | None -> None
    | Some a -> (
      try Some (listen a) with e -> Unix.close fd; raise e)
  in
  let close_listeners () =
    Unix.close fd;
    match repl with Some (rfd, _) -> Unix.close rfd | None -> ()
  in
  let metrics = M.create () in
  let pool =
    Pool.create ~backend:config.parallel ~workers:config.workers
      ~queue:config.queue ()
  in
  let extra_stats () =
    [ ("workers", Wire.Int config.workers);
      ("queue_capacity", Wire.Int config.queue)
    ]
  in
  let persist, session, persistence =
    match config.persist with
    | None -> (None, None, None)
    | Some pc ->
      let p, store, recovery =
        try Persist.open_dir ~metrics pc
        with e -> close_listeners (); raise e
      in
      let session = Kb.Session.of_store store in
      Kb.Session.on_mutation session (fun m -> Persist.append p m);
      ( Some (p, recovery),
        Some session,
        Some
          { Engine.snapshot = (fun () -> Persist.snapshot p);
            seq = (fun () -> Persist.seq p);
            epoch = (fun () -> Persist.epoch p);
            wait_durable = (fun () -> Persist.wait_durable p);
            tail =
              (fun ~from ~max ->
                match Persist.tail p ~from ~max with
                | Ok _ as ok -> ok
                | Error (`Too_old base) -> Error base);
            snapshot_image = (fun () -> Persist.snapshot_image p)
          } )
  in
  let engine =
    Engine.create ~caps:config.caps ~metrics ~extra_stats ?session
      ?persistence ?sync:config.sync ()
  in
  let stop_r, stop_w = Unix.pipe () in
  Unix.set_nonblock stop_w;
  { config;
    listen_fd = fd;
    bound;
    repl;
    engine;
    persist;
    pool;
    stop_r;
    stop_w;
    stopping = false;
    lock = Mutex.create ();
    conns = [];
    readers = [];
    on_drain = None
  }

let stop t =
  t.stopping <- true;
  (* wake the accept loop; the pipe is non-blocking and one byte is
     enough, so failures (full pipe, already closed) are harmless *)
  try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1 : int)
  with Unix.Unix_error _ -> ()

let install_signal_handlers t =
  let handler = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler

(* ------------------------------------------------------------------ *)
(* Per-connection reader                                               *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

(* One response line; serialized per connection so concurrent workers
   never interleave bytes of two responses. *)
let send conn_lock fd response =
  Mutex.lock conn_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn_lock)
    (fun () ->
      try write_all fd (Wire.to_string response ^ "\n")
      with Unix.Unix_error _ -> () (* client went away; drop silently *))

let handle_line t ~conn_lock fd line =
  let reply = send conn_lock fd in
  if t.stopping then
    reply (Wire.error_response ~kind:"draining" "server shutting down")
  else
    match Wire.decode_request line with
    | Error e ->
      M.incr (Engine.metrics t.engine) "proto_errors";
      reply (Wire.error_response ~kind:"proto" (Wire.error_to_string e))
    | Ok req -> (
      match (Wire.classify req.verb).thread with
      | Wire.Last ->
        (* the response is on the wire before the drain begins *)
        reply (Engine.handle t.engine req);
        stop t
      | Wire.Reader -> reply (Engine.handle t.engine req)
      | Wire.Pool ->
        M.gauge_max (Engine.metrics t.engine) "queue_peak"
          (Pool.queued t.pool + 1);
        let job () = reply (Engine.handle t.engine req) in
        if not (Pool.submit t.pool job) then begin
          M.incr (Engine.metrics t.engine) "rejected";
          reply (Wire.error_response ~kind:"busy" "request queue full")
        end)

let reader t fd =
  let conn_lock = Mutex.create () in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let discarding = ref false in
  let max_len = Wire.default_max_len in
  let flush_line line =
    let line =
      (* tolerate CRLF framing *)
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
    in
    if String.trim line <> "" then handle_line t ~conn_lock fd line
  in
  let feed s =
    String.iter
      (fun c ->
        if c = '\n' then begin
          if !discarding then discarding := false
          else flush_line (Buffer.contents buf);
          Buffer.clear buf
        end
        else if !discarding then ()
        else begin
          Buffer.add_char buf c;
          if Buffer.length buf > max_len then begin
            (* typed error now, then skip the rest of this frame *)
            send conn_lock fd
              (Wire.error_response ~kind:"proto"
                 (Wire.error_to_string
                    (Wire.Oversized
                       { length = Buffer.length buf; limit = max_len })));
            M.incr (Engine.metrics t.engine) "proto_errors";
            Buffer.clear buf;
            discarding := true
          end
        end)
      s
  in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      feed (Bytes.sub_string chunk 0 n);
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.lock;
  t.conns <- List.filter (fun c -> c != fd) t.conns;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Accept loop and drain                                               *)
(* ------------------------------------------------------------------ *)

let serve t =
  let listeners =
    t.listen_fd :: (match t.repl with Some (fd, _) -> [ fd ] | None -> [])
  in
  let accept_on fd =
    match Unix.accept fd with
    | conn, _ ->
      M.incr (Engine.metrics t.engine) "connections";
      Mutex.lock t.lock;
      t.conns <- conn :: t.conns;
      t.readers <- Thread.create (reader t) conn :: t.readers;
      Mutex.unlock t.lock
    | exception Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    if not t.stopping then begin
      match Unix.select (t.stop_r :: listeners) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | readable, _, _ ->
        if not t.stopping then begin
          (* both listeners feed the same engine: replicas speak the
             ordinary wire protocol, just on their own address *)
          List.iter
            (fun fd -> if List.mem fd readable then accept_on fd)
            listeners;
          accept_loop ()
        end
        (* otherwise: woken by the stop pipe (or stop flag already set) *)
    end
  in
  accept_loop ();
  (* drain: stop listening, finish queued and in-flight work, then close
     the surviving connections and collect the readers *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.bound with
  | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ());
  (match t.repl with
  | Some (fd, bound) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (match bound with
    | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
    | `Tcp _ -> ())
  | None -> ());
  Pool.drain t.pool;
  Mutex.lock t.lock;
  let conns = t.conns and readers = t.readers in
  t.readers <- [];
  Mutex.unlock t.lock;
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join readers;
  (* the drain hook runs after the workers and readers are gone but
     before the WAL closes — bin stops the replication link here so its
     last append cannot race the close *)
  (match t.on_drain with Some f -> (try f () with _ -> ()) | None -> ());
  (* all workers and readers are gone; no appends can race the close *)
  (match t.persist with Some (p, _) -> Persist.close p | None -> ());
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  try Unix.close t.stop_w with Unix.Unix_error _ -> ()
