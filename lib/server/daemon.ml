module M = Governor.Metrics

type config = {
  address : Net.address;
  workers : int;
  parallel : Pool.backend;
  queue : int;
  caps : Engine.caps;
  persist : Persist.config option;
  replicate_on : Net.address option;
  sync : Engine.sync option;
  replica_of : Link.config option;
}

type t = {
  listener : Unix.file_descr * Net.address;  (* clients; bound address *)
  repl : (Unix.file_descr * Net.address) option;  (* replication listener *)
  engine : Engine.t;
  persist : (Persist.t * Persist.recovery) option;
  link : Link.t option;  (* set when this server is a replica *)
  pool : Pool.t;
  stop_r : Unix.file_descr;  (* self-pipe: select wake-up for stop *)
  stop_w : Unix.file_descr;
  mutable stopping : bool;
  lock : Mutex.t;  (* guards [stopping], [conns], [readers] *)
  mutable conns : Unix.file_descr list;
  mutable readers : Thread.t list;
}

let engine t = t.engine
let address t = snd t.listener
let recovery t = Option.map snd t.persist
let persist_handle t = Option.map fst t.persist
let replication_address t = Option.map snd t.repl

(* The engine's replication hooks for either role, with the [stats]
   fields in a fixed order.  [members] lists this server's own client
   address first, then every replica that advertised one. *)
let wire_replication engine ~bound ~repl ~epoch link =
  let listener_stat =
    match repl with
    | Some (_, a) -> [ ("listener", Wire.String (Net.address_to_string a)) ]
    | None -> []
  in
  let members () =
    [ ("members",
       Wire.List
         (List.map
            (fun a -> Wire.String a)
            (Net.address_to_string bound :: Engine.replica_members engine)))
    ]
  in
  match link with
  | Some link ->
    Engine.set_replication engine
      { Engine.role = (fun () -> (Link.status link).role);
        primary = (fun () -> Some (Link.status link).primary);
        details =
          (fun () ->
            let s = Link.status link in
            [ ("primary", Wire.String s.primary);
              ("epoch", Wire.Int s.epoch);
              ("last_applied", Wire.Int s.last_applied);
              ("primary_seq", Wire.Int s.primary_seq);
              ("lag", Wire.Int s.lag);
              ("connected", Wire.Bool s.connected);
              ("connect_attempts", Wire.Int s.connect_attempts)
            ]
            @ members () @ listener_stat);
        promote = (fun () -> Link.promote link)
      }
  | None when listener_stat <> [] ->
    Engine.set_replication engine
      { Engine.role = (fun () -> "primary");
        primary = (fun () -> None);
        details =
          (fun () ->
            listener_stat @ [ ("epoch", Wire.Int (epoch ())) ] @ members ());
        promote = (fun () -> Error "this server is already a primary")
      }
  | None -> ()

let create config =
  if config.replica_of <> None && config.persist = None then
    invalid_arg "Daemon.create: replica_of requires persist";
  (* a write to a peer that already hung up must surface as the EPIPE
     [send] drops, not as a SIGPIPE that kills the whole process — also
     when the daemon runs inside a host program rather than [olp serve] *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener = Net.listen config.address in
  let bound = snd listener in
  let repl =
    match config.replicate_on with
    | None -> None
    | Some a -> (
      try Some (Net.listen a) with e -> Net.unlisten listener; raise e)
  in
  let close_listeners () =
    List.iter Net.unlisten (listener :: Option.to_list repl)
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
  let link =
    match config.replica_of, persist with
    | Some lc, Some (p, _) ->
      Some
        (Link.create ~advertise:(Net.address_to_string bound) ~engine
           ~persist:p lc)
    | _ -> None
  in
  wire_replication engine ~bound ~repl link ~epoch:(fun () ->
      match persist with Some (p, _) -> Persist.epoch p | None -> 0);
  let stop_r, stop_w = Unix.pipe () in
  Unix.set_nonblock stop_w;
  { listener;
    repl;
    engine;
    persist;
    link;
    pool;
    stop_r;
    stop_w;
    stopping = false;
    lock = Mutex.create ();
    conns = [];
    readers = []
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
  Sys.set_signal Sys.sigterm handler;
  Option.iter
    (fun link ->
      Sys.set_signal Sys.sigusr1
        (Sys.Signal_handle (fun _ -> Link.request_promote link)))
    t.link

(* ------------------------------------------------------------------ *)
(* Per-connection reader                                               *)
(* ------------------------------------------------------------------ *)

(* One response line; serialized per connection so concurrent workers
   never interleave bytes of two responses. *)
let send conn_lock fd response =
  Mutex.lock conn_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn_lock)
    (fun () ->
      try Net.write_all fd (Wire.to_string response ^ "\n")
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
  let limit = Wire.default_max_len in
  let lines = Net.reader ~max:limit fd in
  let rec loop () =
    match Net.read_line lines with
    | `Line line ->
      if String.trim line <> "" then handle_line t ~conn_lock fd line;
      loop ()
    | `Oversized length ->
      (* typed error once; the framer skips the rest of this frame *)
      send conn_lock fd
        (Wire.error_response ~kind:"proto"
           (Wire.error_to_string (Wire.Oversized { length; limit })));
      M.incr (Engine.metrics t.engine) "proto_errors";
      loop ()
    | `Eof | `Error _ -> ()
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
  Option.iter Link.start t.link;
  let listeners = t.listener :: Option.to_list t.repl in
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
      match Unix.select (t.stop_r :: List.map fst listeners) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | readable, _, _ ->
        if not t.stopping then begin
          (* both listeners feed the same engine: replicas speak the
             ordinary wire protocol, just on their own address *)
          List.iter
            (fun (fd, _) -> if List.mem fd readable then accept_on fd)
            listeners;
          accept_loop ()
        end
        (* otherwise: woken by the stop pipe (or stop flag already set) *)
    end
  in
  accept_loop ();
  (* drain: stop listening, finish queued and in-flight work, then close
     the surviving connections and collect the readers *)
  List.iter Net.unlisten listeners;
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
  (* the replication link stops after the workers and readers are gone
     but before the WAL closes, so its last append cannot race the
     close; then nothing appends *)
  Option.iter Link.stop t.link;
  (match t.persist with Some (p, _) -> Persist.close p | None -> ());
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  try Unix.close t.stop_w with Unix.Unix_error _ -> ()
