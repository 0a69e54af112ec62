(* WAL segment I/O; see wal.mli.  All writes funnel through
   [write_chunked], which ticks the fault-injection budget before every
   Unix.write so a test can tear the file at any chunk boundary. *)

module B = Governor.Budget

type t = { fd : Unix.file_descr; path : string }

let write_chunked ?budget fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  (* small chunks only under fault injection: every tick is a potential
     crash point, and the sweep wants byte-level granularity without a
     syscall storm on the production path *)
  let chunk = match budget with None -> 65536 | Some _ -> 16 in
  let off = ref 0 in
  while !off < n do
    (match budget with Some bu -> B.tick bu | None -> ());
    let written = Unix.write fd b !off (min chunk (n - !off)) in
    off := !off + written
  done

let create ?budget ~fsync ~base ~epoch path =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let t = { fd; path } in
  (try write_chunked ?budget fd (Record.wal_header ~base ~epoch)
   with e -> Unix.close fd; raise e);
  if fsync then Unix.fsync fd;
  t

let open_append ~path =
  let fd = Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644 in
  { fd; path }

let append ?budget ~fsync t payload =
  let framed = Record.frame payload in
  write_chunked ?budget t.fd framed;
  if fsync then Unix.fsync t.fd;
  String.length framed

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_file ?budget ~fsync ~path image =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_chunked ?budget fd image;
      if fsync then Unix.fsync fd)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type replay = {
  mutations : (int * Kb.Store.mutation) list;
  good_end : int;
  size : int;
  torn : string option;
  epoch : int;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read ~path ~expect_base =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | s -> (
    match Record.decode_wal_header s with
    | Error _ as e -> e
    | Ok h when h.Record.wal_base <> expect_base ->
      Error
        (Printf.sprintf "WAL header base %d does not match segment name %d"
           h.Record.wal_base expect_base)
    | Ok h ->
      let size = String.length s in
      let epoch = h.Record.wal_epoch in
      let rec go pos acc =
        match Record.unframe s ~pos with
        | Record.End ->
          { mutations = List.rev acc; good_end = pos; size; torn = None;
            epoch }
        | Record.Torn detail ->
          { mutations = List.rev acc; good_end = pos; size;
            torn = Some detail; epoch }
        | Record.Frame { payload; next } -> (
          match Record.decode_mutation payload with
          | Ok m -> go next ((pos, m) :: acc)
          | Error detail ->
            (* CRC-valid but undecodable: treat as torn here — the
               bytes are not something this codec ever wrote *)
            { mutations = List.rev acc; good_end = pos; size;
              torn = Some detail; epoch })
      in
      Ok (go h.Record.wal_head_len []))

let truncate ~path off =
  let fd = Unix.openfile path [ O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.ftruncate fd off;
      Unix.fsync fd)

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)
(* ------------------------------------------------------------------ *)

module Group = struct
  type group = {
    window : float;  (* seconds the committer waits to gather appends *)
    on_fsync : unit -> unit;
    lock : Mutex.t;
    work : Condition.t;  (* appends behind durability exist *)
    done_ : Condition.t;  (* durable advanced *)
    mutable wal : t;
    mutable written : int;  (* highest seq appended to the file *)
    mutable durable : int;  (* highest seq known flushed *)
    mutable waiters : int;  (* threads blocked in [wait] *)
    mutable stopped : bool;
    mutable committer : Thread.t option;
  }

  (* Flush the active segment and publish the new durability horizon.
     Caller holds [lock]; the fsync itself runs under the lock so a
     concurrent [attach] cannot swap the segment out from under it. *)
  let sync g =
    let target = g.written in
    (try Unix.fsync g.wal.fd with Unix.Unix_error _ -> ());
    g.on_fsync ();
    if target > g.durable then g.durable <- target;
    Condition.broadcast g.done_

  let run g =
    Mutex.lock g.lock;
    while not g.stopped do
      while g.written <= g.durable && not g.stopped do
        Condition.wait g.work g.lock
      done;
      if not g.stopped then begin
        (* Gather appends for up to the window so they share one fsync —
           but flush the moment a writer blocks on durability.  The
           window bounds added latency for fire-and-forget appends; a
           blocked writer must never idle out a window the disk does not
           need.  Batching under concurrent waiters still happens: every
           append that lands while an fsync is in flight shares the
           next one. *)
        if g.waiters = 0 then begin
          let deadline = Unix.gettimeofday () +. g.window in
          let slice = g.window /. 4. in
          while
            g.waiters = 0 && (not g.stopped)
            && Unix.gettimeofday () < deadline
          do
            (* sleep outside the lock so appends can land in the window *)
            Mutex.unlock g.lock;
            Thread.delay slice;
            Mutex.lock g.lock
          done
        end;
        if not g.stopped then sync g
      end
    done;
    Mutex.unlock g.lock

  let create ~window_ms ?(on_fsync = fun () -> ()) wal =
    let g =
      { window = float_of_int window_ms /. 1000.;
        on_fsync;
        lock = Mutex.create ();
        work = Condition.create ();
        done_ = Condition.create ();
        wal;
        written = 0;
        durable = 0;
        waiters = 0;
        stopped = false;
        committer = None
      }
    in
    g.committer <- Some (Thread.create run g);
    g

  let attach g wal =
    Mutex.lock g.lock;
    g.wal <- wal;
    Mutex.unlock g.lock

  let wrote g ~seq =
    Mutex.lock g.lock;
    if seq > g.written then g.written <- seq;
    Condition.signal g.work;
    Mutex.unlock g.lock

  let wait g =
    Mutex.lock g.lock;
    let target = g.written in
    g.waiters <- g.waiters + 1;
    while g.durable < target && not g.stopped do
      Condition.wait g.done_ g.lock
    done;
    g.waiters <- g.waiters - 1;
    Mutex.unlock g.lock

  let flush g =
    Mutex.lock g.lock;
    if g.written > g.durable then sync g;
    Mutex.unlock g.lock

  let stop g =
    Mutex.lock g.lock;
    if not g.stopped then begin
      if g.written > g.durable then sync g;
      g.stopped <- true;
      Condition.broadcast g.work;
      Condition.broadcast g.done_
    end;
    Mutex.unlock g.lock;
    match g.committer with
    | Some th ->
      g.committer <- None;
      Thread.join th
    | None -> ()
end
