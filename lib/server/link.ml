(* The replica side of log shipping: a pull loop that keeps a local
   durable KB in lockstep with a primary.  See link.mli for the
   life-cycle and locking contract. *)

module M = Governor.Metrics
module Backoff = Governor.Backoff

type config = {
  primary : Net.address;
  poll_interval : float;
  log : string -> unit;
}

let default_config primary =
  { primary; poll_interval = 0.05; log = (fun _ -> ()) }

(* Records per pull; the first reconnect delay (which also bounds one
   connect attempt, and so how long [stop] can block) and the backoff
   ceiling. *)
let batch = 512
let retry_base = 0.05
let retry_cap = 1.0

(* Instance ids distinguish replicas in the primary's ack ledger; a
   process-wide counter keeps links created in the same microsecond (a
   test spinning up a cluster) distinct. *)
let rid_counter = ref 0

let gen_rid () =
  incr rid_counter;
  Printf.sprintf "r%d-%d-%06x" (Unix.getpid ()) !rid_counter
    (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF)

type conn = { client : Client.t; mutable greeted : bool }

type t = {
  config : config;
  advertise : string option;
  engine : Engine.t;
  persist : Persist.t;
  rid : string;
  backoff : Backoff.t;
  lock : Mutex.t;  (* guards [conn] and the status fields *)
  wake_r : Unix.file_descr;  (* self-pipe: interrupts the poll sleep *)
  wake_w : Unix.file_descr;
  mutable conn : conn option;
  mutable promoted : bool;
  mutable promote_requested : bool;
  mutable stopping : bool;
  mutable closed : bool;
  mutable connected : bool;
  mutable primary_seq : int;
  mutable connect_attempts : int;
  mutable last_error : string option;
  mutable bootstraps : int;
  mutable thread : Thread.t option;
}

type status = {
  role : string;
  primary : string;
  connected : bool;
  last_applied : int;
  primary_seq : int;
  lag : int;
  epoch : int;
  bootstraps : int;
  connect_attempts : int;
  last_error : string option;
}

let create ?advertise ~engine ~persist config =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  { config;
    advertise;
    engine;
    persist;
    rid = gen_rid ();
    backoff =
      (* distinct seeds per primary address de-correlate replicas of
         different servers; the per-process rid counter de-correlates
         siblings *)
      Backoff.make ~base:retry_base ~cap:retry_cap
        ~seed:
          (Hashtbl.hash (Net.address_to_string config.primary, !rid_counter))
        ();
    lock = Mutex.create ();
    wake_r;
    wake_w;
    conn = None;
    promoted = false;
    promote_requested = false;
    stopping = false;
    closed = false;
    connected = false;
    primary_seq = 0;
    connect_attempts = 0;
    last_error = None;
    bootstraps = 0;
    thread = None
  }

let bump t name n = M.add (Engine.metrics t.engine) name n

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let drop t =
  locked t (fun () ->
      (match t.conn with Some c -> Client.close c.client | None -> ());
      t.conn <- None;
      t.connected <- false)

let disconnect = drop

(* ------------------------------------------------------------------ *)
(* One protocol step                                                   *)
(* ------------------------------------------------------------------ *)

(* Map a refusal of a handshake-ish request to a step result.  A
   ["proto"] refusal means the primary's decoder does not know the verb
   at all — an old server — so it gets the typed mismatch message
   instead of a bare decode failure.  A ["fenced"] refusal is read
   through its epoch: a server {e ahead} of us witnessed a promotion we
   have not — reconnect and re-handshake to adopt the term; a server
   {e behind} us was deposed — following it could fork history, so
   replication halts. *)
let refused t (r : Protocol.refusal) =
  drop t;
  match r.kind with
  | "fenced" -> (
    match r.epoch with
    | Some theirs when theirs > Persist.epoch t.persist ->
      `Retry ("re-handshaking after a promotion upstream: " ^ r.message)
    | _ -> `Fatal r.message)
  | "handshake" | "input" | "read_only" -> `Fatal r.message
  | "proto" ->
    `Fatal
      "primary does not speak the replication protocol (protocol revision \
       mismatch — upgrade the primary)"
  | _ -> `Retry r.message

(* The hello reply carries the primary's fencing term: adopt a higher
   one durably (a promotion happened somewhere upstream); refuse a
   lower one — that primary was deposed and must not be followed. *)
let reconcile_epoch t ~theirs =
  let mine = Persist.epoch t.persist in
  if theirs < mine then begin
    drop t;
    Error
      (Printf.sprintf
         "fenced: primary is at epoch %d but we have seen epoch %d — it \
          was deposed by a promotion and must not be followed"
         theirs mine)
  end
  else begin
    if theirs > mine then begin
      Engine.exclusively t.engine (fun () ->
          Persist.adopt_epoch t.persist theirs);
      t.config.log
        (Printf.sprintf "replication: adopted epoch %d from primary" theirs)
    end;
    Ok ()
  end

let bootstrap t c =
  let epoch = Persist.epoch t.persist in
  match Client.request c.client (Protocol.fetch_snapshot ~epoch) with
  | Error msg ->
    drop t;
    `Retry ("snapshot fetch failed: " ^ msg)
  | Ok reply -> (
    match Protocol.decode_snapshot reply with
    | Ok (seq, snap_epoch, dump) ->
      (* replace store and data directory atomically with respect to
         request workers; the session cache is stale afterwards *)
      Engine.exclusively t.engine (fun () ->
          Persist.install_snapshot t.persist ~seq ~epoch:snap_epoch dump;
          Kb.Session.invalidate (Engine.session t.engine));
      locked t (fun () ->
          t.bootstraps <- t.bootstraps + 1;
          if seq > t.primary_seq then t.primary_seq <- seq);
      bump t "repl_bootstraps" 1;
      t.config.log
        (Printf.sprintf "replication: bootstrapped from snapshot at seq %d"
           seq);
      `Ready
    | Error (`Refused r) -> refused t r
    | Error (`Garbled msg) ->
      drop t;
      `Retry ("garbled snapshot reply: " ^ msg))

let greet t c =
  let seq = Persist.seq t.persist in
  let epoch = Persist.epoch t.persist in
  match
    Client.request c.client
      (Protocol.hello ?addr:t.advertise ~seq ~epoch ~rid:t.rid ())
  with
  | Error msg ->
    drop t;
    `Retry ("handshake failed: " ^ msg)
  | Ok reply -> (
    match Protocol.decode_hello reply with
    | Ok h -> (
      match reconcile_epoch t ~theirs:h.epoch with
      | Error msg -> `Fatal msg
      | Ok () -> (
        c.greeted <- true;
        Backoff.reset t.backoff;
        locked t (fun () ->
            t.connected <- true;
            t.primary_seq <- h.seq;
            t.last_error <- None);
        match h.action with `Tail -> `Ready | `Snapshot -> bootstrap t c))
    | Error (`Refused r) -> refused t r
    | Error (`Garbled msg) ->
      drop t;
      `Retry ("garbled handshake reply: " ^ msg))

let pull t c =
  let from = Persist.seq t.persist in
  let epoch = Persist.epoch t.persist in
  (* [from] doubles as the durable horizon: the previous batch's
     [wait_durable] ran before this pull, so every local sequence up to
     it is on stable storage — the confirmation the primary's
     synchronous commit is waiting for *)
  match
    Client.request c.client
      (Protocol.pull ?addr:t.advertise ~from ~max:batch
         ~epoch ~rid:t.rid ~durable:from ())
  with
  | Error msg ->
    drop t;
    `Retry ("pull failed: " ^ msg)
  | Ok reply -> (
    match Protocol.decode_pull reply with
    | Ok (seq, _epoch, mutations) -> (
      locked t (fun () -> t.primary_seq <- seq);
      match mutations with
      | [] -> `Idle
      | ms ->
        (* replay under the engine lock; the session applies the whole
           batch under one publish, so readers jump straight from the
           pre-batch snapshot to the post-batch one (the on_mutation
           observer still logs record by record, in order) *)
        Engine.exclusively t.engine (fun () ->
            Kb.Session.apply_batch (Engine.session t.engine) ms);
        (* settle the batch on stable storage before confirming it —
           the next pull's [durable] field must not promise more than
           fsync delivered *)
        Persist.wait_durable t.persist;
        let n = List.length ms in
        bump t "repl_applied" n;
        `Applied n)
    | Error (`Refused r) when r.kind = "behind" ->
      (* our position was compacted away under us *)
      bootstrap t c
    | Error (`Refused r) -> refused t r
    | Error (`Garbled msg) ->
      drop t;
      `Retry ("garbled pull reply: " ^ msg))

let step t =
  if t.stopping || t.promoted then `Stopped
  else
    match t.conn with
    | None -> (
      t.connect_attempts <- t.connect_attempts + 1;
      match Client.connect ~retry:retry_base t.config.primary with
      | Error msg ->
        locked t (fun () -> t.connected <- false);
        `Retry
          (Printf.sprintf "cannot reach primary at %s: %s"
             (Net.address_to_string t.config.primary)
             msg)
      | Ok client ->
        let c = { client; greeted = false } in
        locked t (fun () -> t.conn <- Some c);
        greet t c)
    | Some c when not c.greeted -> greet t c
    | Some c -> pull t c

(* ------------------------------------------------------------------ *)
(* Promotion, status                                                   *)
(* ------------------------------------------------------------------ *)

(* Caller must hold the engine lock (the engine's promote closure does;
   the run loop's self-promotion path takes it) — that is what makes
   promotion atomic with respect to an in-flight apply batch, and what
   lets [bump_epoch] snapshot without racing the workers. *)
let promote t =
  let result, conn =
    locked t (fun () ->
        if t.promoted then
          (Error "already promoted: this server is a standalone primary",
           None)
        else begin
          t.promoted <- true;
          t.promote_requested <- false;
          let c = t.conn in
          t.conn <- None;
          t.connected <- false;
          (Ok "primary", c)
        end)
  in
  (match conn with Some c -> Client.close c.client | None -> ());
  (match result with
  | Ok _ ->
    let epoch = Persist.bump_epoch t.persist in
    t.config.log
      (Printf.sprintf
         "promoted: replication stopped, now a standalone primary at epoch \
          %d"
         epoch)
  | Error _ -> ());
  result

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1 : int)
  with Unix.Unix_error _ -> ()

(* Safe to call from a signal handler: a flag and a pipe write. *)
let request_promote t =
  t.promote_requested <- true;
  wake t

let status t =
  locked t (fun () ->
      let last_applied = Persist.seq t.persist in
      { role = (if t.promoted then "primary" else "replica");
        primary = Net.address_to_string t.config.primary;
        connected = t.connected;
        last_applied;
        primary_seq = t.primary_seq;
        lag = max 0 (t.primary_seq - last_applied);
        epoch = Persist.epoch t.persist;
        bootstraps = t.bootstraps;
        connect_attempts = t.connect_attempts;
        last_error = t.last_error
      })

(* ------------------------------------------------------------------ *)
(* The background loop                                                 *)
(* ------------------------------------------------------------------ *)

let sleep t dt =
  match Unix.select [ t.wake_r ] [] [] dt with
  | readable, _, _ when List.mem t.wake_r readable ->
    let b = Bytes.create 16 in
    (try ignore (Unix.read t.wake_r b 0 16 : int)
     with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let rec run t =
  if t.stopping then ()
  else if t.promote_requested && not t.promoted then begin
    (* under the engine lock so the promotion cannot land while a
       worker-visible apply is mid-batch (lock order engine → link) *)
    ignore
      (Engine.exclusively t.engine (fun () -> promote t)
        : (string, string) result);
    run t
  end
  else
    match (try step t with e -> `Crashed (Printexc.to_string e)) with
    | `Stopped -> ()
    | `Ready | `Applied _ -> run t  (* more may be waiting: no sleep *)
    | `Idle ->
      sleep t t.config.poll_interval;
      run t
    | `Retry msg ->
      locked t (fun () ->
          if t.last_error <> Some msg then begin
            t.config.log ("replication: " ^ msg);
            t.last_error <- Some msg
          end);
      sleep t (Backoff.next t.backoff);
      run t
    | `Fatal msg | `Crashed msg ->
      (* stop following; keep serving reads at the last applied state *)
      locked t (fun () -> t.last_error <- Some msg);
      t.config.log ("replication halted: " ^ msg)

let start t =
  match t.thread with
  | Some _ -> ()
  | None -> t.thread <- Some (Thread.create run t)

let stop t =
  if not t.closed then begin
    locked t (fun () ->
        t.stopping <- true;
        (* break a request the loop may be blocked in *)
        match t.conn with Some c -> Client.shutdown c.client | None -> ());
    wake t;
    (match t.thread with
    | Some th ->
      t.thread <- None;
      Thread.join th
    | None -> ());
    locked t (fun () ->
        (match t.conn with Some c -> Client.close c.client | None -> ());
        t.conn <- None;
        t.connected <- false);
    t.closed <- true;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end
