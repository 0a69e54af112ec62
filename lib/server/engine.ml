module B = Ordered.Budget
module M = Governor.Metrics

type caps = { timeout : float option; steps : int option }

let default_caps = { timeout = Some 30.; steps = None }

type persistence = {
  snapshot : unit -> int;
  seq : unit -> int;
  epoch : unit -> int;
  wait_durable : unit -> unit;
  tail : from:int -> max:int -> (string * int, int) result;
  snapshot_image : unit -> int * string;
}

type replication = {
  role : unit -> string;
  primary : unit -> string option;
  details : unit -> (string * Wire.json) list;
  promote : unit -> (string, string) result;
}

type sync = { replicas : int; timeout_ms : int }

(* Per-replica durability horizons, keyed by the instance id ([rid])
   replicas send in [hello]/[pull].  Updated while serving replication
   verbs (under the engine lock), read by writers waiting for quorum
   (outside it), hence the private lock. *)
type acks = {
  ack_lock : Mutex.t;
  ack_tbl : (string, int * string option) Hashtbl.t;
      (** rid -> (durable horizon, advertised address) *)
}

let max_tracked_replicas = 64

type t = {
  session : Kb.Session.t;
  caps : caps;
  metrics : M.t;
  lock : Mutex.t;  (* the io lock: store apply + persistence/replication *)
  shards : Shards.t;  (* striped write admission, per target object *)
  writers : int Atomic.t;  (* writers inside a shard region right now *)
  extra_stats : unit -> (string * Wire.json) list;
  persistence : persistence option;
  sync : sync option;
  acks : acks;
  mutable replication : replication option;
}

let create ?(caps = default_caps) ?(metrics = M.create ())
    ?(extra_stats = fun () -> []) ?session ?persistence ?sync () =
  let session =
    match session with Some s -> s | None -> Kb.Session.create ()
  in
  Kb.Session.use_metrics session metrics;
  { session; caps; metrics; lock = Mutex.create ();
    shards = Shards.create (); writers = Atomic.make 0; extra_stats;
    persistence; sync;
    acks = { ack_lock = Mutex.create (); ack_tbl = Hashtbl.create 8 };
    replication = None }

let session t = t.session
let metrics t = t.metrics
let set_replication t r = t.replication <- Some r

let record_ack t ~rid ?addr ~durable () =
  let a = t.acks in
  Mutex.lock a.ack_lock;
  (match Hashtbl.find_opt a.ack_tbl rid with
  | Some (prev, prev_addr) ->
    let addr = match addr with Some _ -> addr | None -> prev_addr in
    Hashtbl.replace a.ack_tbl rid (max prev durable, addr)
  | None ->
    if Hashtbl.length a.ack_tbl < max_tracked_replicas then
      Hashtbl.replace a.ack_tbl rid (durable, addr));
  Mutex.unlock a.ack_lock

(* Advertised addresses of the replicas this primary has heard from,
   sorted for deterministic [stats] topology output. *)
let replica_members t =
  let a = t.acks in
  Mutex.lock a.ack_lock;
  let addrs =
    Hashtbl.fold
      (fun _ (_, addr) acc ->
        match addr with Some ad -> ad :: acc | None -> acc)
      a.ack_tbl []
  in
  Mutex.unlock a.ack_lock;
  List.sort_uniq String.compare addrs

let confirmed_replicas t ~seq =
  let a = t.acks in
  Mutex.lock a.ack_lock;
  let n =
    Hashtbl.fold
      (fun _ (d, _) acc -> if d >= seq then acc + 1 else acc)
      a.ack_tbl 0
  in
  Mutex.unlock a.ack_lock;
  n

(* Quorum rendezvous: acknowledgements arrive piggybacked on replica
   pulls (which the daemon serves on their reader threads, so they are
   never stuck behind this very wait), so a short poll is plenty — the
   pull cadence, not this loop, dominates the latency. *)
let wait_confirmed t ~seq ~required ~timeout_ms =
  let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
  let rec loop () =
    let n = confirmed_replicas t ~seq in
    if n >= required then `Confirmed
    else if Unix.gettimeofday () >= deadline then `Timeout n
    else begin
      Thread.delay 0.002;
      loop ()
    end
  in
  loop ()

let exclusively t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The effective limit is the minimum of what the request asks for and
   the server cap; the cap applies even to requests that ask for
   nothing. *)
let clamp request cap =
  match request, cap with
  | Some r, Some c -> Some (min r c)
  | Some r, None -> Some r
  | None, c -> c

let budget_of t (spec : Wire.budget_spec) =
  let timeout =
    clamp
      (Option.map (fun ms -> float_of_int ms /. 1000.) spec.timeout_ms)
      t.caps.timeout
  in
  let max_steps = clamp spec.max_steps t.caps.steps in
  B.make ?timeout ?max_steps ()

let value_to_string = function
  | Logic.Interp.True -> "true"
  | Logic.Interp.False -> "false"
  | Logic.Interp.Undefined -> "undefined"

let json_of_model m =
  Wire.List
    (List.map
       (fun l -> Wire.String (Logic.Literal.to_string l))
       (Logic.Interp.to_literals m))

let kind_to_string = function
  | `Stable -> "stable"
  | `Af -> "assumption-free"

(* Echoed on preferred answers: the value a client sends in
   ["prefer"], so responses read the same to revision-7 clients. *)
let prefer_name = Wire.String "compiled"

(* Per-request solver counters, folded into the server metrics after the
   search returns. *)
let record_solver t (c : Ordered.Counters.t) =
  if Ordered.Counters.has_solver c then begin
    M.add t.metrics "solver_propagations" c.propagations;
    M.add t.metrics "solver_conflicts" c.conflicts;
    M.add t.metrics "solver_learned" c.learned;
    M.add t.metrics "solver_evicted" c.evicted;
    M.add t.metrics "solver_restarts" c.restarts
  end

let is_write = function
  | Wire.Load _ | Wire.Define _ | Wire.Add_rule _ | Wire.Remove_rule _
  | Wire.New_version _ | Wire.Set_preference _ | Wire.Clear_preference _ ->
    true
  | Wire.Query _ | Wire.Models _ | Wire.Explain _ | Wire.Stats
  | Wire.Version | Wire.Snapshot | Wire.Shutdown | Wire.Hello _
  | Wire.Pull _ | Wire.Fetch_snapshot _ | Wire.Promote | Wire.Batch _ ->
    false

(* Replication/persistence verbs touch the WAL, the snapshot files or
   the replication role — they serialize on the io lock like the write
   verbs' apply phase. *)
let is_io = function
  | Wire.Snapshot | Wire.Hello _ | Wire.Pull _ | Wire.Fetch_snapshot _
  | Wire.Promote ->
    true
  | _ -> false

(* The shard stripes a mutating verb must hold: the object it targets,
   or every stripe for [load] (which may define any number of objects). *)
let write_keys = function
  (* a preference change refines the rule order of every view, so it
     excludes all concurrent writers, like [load] *)
  | Wire.Load _ | Wire.Set_preference _ | Wire.Clear_preference _ -> `All
  | Wire.Define { name; _ } | Wire.New_version { name; _ } -> `Keys [ name ]
  | Wire.Add_rule { obj; _ } | Wire.Remove_rule { obj; _ } -> `Keys [ obj ]
  | _ -> `Keys []

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let stats_response t ~id =
  let c = Kb.Session.counters t.session in
  let cache =
    Wire.Obj
      [ ("hits", Wire.Int c.hits);
        ("misses", Wire.Int c.misses);
        ("invalidations", Wire.Int c.invalidations);
        ("entries", Wire.Int c.entries)
      ]
  in
  let server =
    Wire.Obj
      (t.extra_stats ()
      @ (match t.persistence with
        | Some p ->
          [ ("persist_seq", Wire.Int (p.seq ()));
            ("epoch", Wire.Int (p.epoch ()))
          ]
        | None -> [])
      @ (match t.sync with
        | Some s ->
          [ ("sync_replicas", Wire.Int s.replicas);
            ("sync_timeout_ms", Wire.Int s.timeout_ms)
          ]
        | None -> [])
      @ List.map (fun (k, v) -> (k, Wire.Int v)) (M.snapshot t.metrics))
  in
  Wire.ok ?id
    ([ ("version", Wire.String Wire.package_version);
       ("protocol", Wire.Int Wire.protocol_revision);
       ("cache", cache)
     ]
    @ (match t.replication with
      | Some r ->
        (* fixed field order — the stats line is a cram-pinned contract *)
        [ ("replication",
           Wire.Obj (("role", Wire.String (r.role ())) :: r.details ()))
        ]
      | None -> [])
    @ [ ("server", server) ])

(* Mutating verbs, called with the verb's shard stripes held: parse the
   request's program text first (concurrent with other writers and every
   reader), then apply to the session under the io lock — the only part
   that serializes globally, and the part that keeps WAL append order
   identical to apply order.  Returns the response and, for synchronous
   commit, the WAL sequence this write reached (captured under the io
   lock so the quorum wait targets exactly this mutation). *)
let serve_write t ~id verb =
  let session = t.session in
  let exclusively_seq f =
    exclusively t (fun () ->
        let fields = f () in
        let seq =
          match t.persistence, t.sync with
          | Some p, Some _ -> Some (p.seq ())
          | _ -> None
        in
        (Wire.ok ?id fields, seq))
  in
  match verb with
  | Wire.Load { src } ->
    exclusively_seq (fun () ->
        Kb.Session.load session src;
        [ ("objects",
           Wire.List
             (List.map (fun o -> Wire.String o) (Kb.Session.objects session)))
        ])
  | Wire.Define { name; isa; rules } ->
    let rules = Lang.Parser.parse_rules rules in
    exclusively_seq (fun () ->
        Kb.Session.define session ~isa name rules;
        [ ("object", Wire.String name) ])
  | Wire.Add_rule { obj; rule } ->
    let rule = Lang.Parser.parse_rule rule in
    exclusively_seq (fun () ->
        Kb.Session.add_rule session ~obj rule;
        [])
  | Wire.Remove_rule { obj; rule } ->
    let rule = Lang.Parser.parse_rule rule in
    exclusively_seq (fun () ->
        let removed = Kb.Session.remove_rule session ~obj rule in
        [ ("removed", Wire.Bool removed) ])
  | Wire.New_version { name; rules } ->
    let rules = Option.map Lang.Parser.parse_rules rules in
    exclusively_seq (fun () ->
        let version = Kb.Session.new_version session ?rules name in
        [ ("version", Wire.String version) ])
  | Wire.Set_preference { rule; over } ->
    exclusively_seq (fun () ->
        Kb.Session.set_preference session ~rule ~over;
        [ ("rule", Wire.String rule); ("over", Wire.String over) ])
  | Wire.Clear_preference { rule; over } ->
    exclusively_seq (fun () ->
        let removed = Kb.Session.clear_preference session ~rule ~over in
        [ ("removed", Wire.Bool removed) ])
  | _ -> assert false (* only write verbs are routed here *)

(* Read and replication verbs.  The read verbs ([query]/[models]/
   [explain]/[stats]/[version]) run entirely against the session's
   published snapshot and the atomic counters — no lock anywhere on
   their path; [handle] wraps the io verbs in {!exclusively}. *)
let serve t ~id req =
  let session = t.session in
  let budget = budget_of t req.Wire.budget in
  match req.Wire.verb with
  | Wire.Load _ | Wire.Define _ | Wire.Add_rule _ | Wire.Remove_rule _
  | Wire.New_version _ | Wire.Set_preference _ | Wire.Clear_preference _
  | Wire.Batch _ ->
    assert false (* routed to serve_write / handle_batch *)
  | Wire.Query { obj; lit; prefer = false } ->
    let l = Lang.Parser.parse_literal lit in
    let v = Kb.Session.query ~budget session ~obj l in
    Wire.ok ?id [ ("value", Wire.String (value_to_string v)) ]
  | Wire.Query { obj; lit; prefer = true } -> (
    (* skeptical reading: the value all preferred models agree on,
       [undefined] when they disagree.  Sound only over the complete
       enumeration, so a budget trip carries no value at all. *)
    let l = Lang.Parser.parse_literal lit in
    if not (Logic.Literal.is_ground l) then
      invalid_arg "query: literal must be ground";
    let stats = Ordered.Counters.create () in
    let result =
      Kb.Session.preferred_models ~budget ~stats ~metrics:t.metrics session
        ~obj
    in
    record_solver t stats;
    match result with
    | B.Complete ms ->
      let v =
        match List.map (fun m -> Logic.Interp.value_lit m l) ms with
        | [] -> Logic.Interp.Undefined
        | v0 :: rest ->
          if List.for_all (fun v -> v = v0) rest then v0
          else Logic.Interp.Undefined
      in
      Wire.ok ?id
        [ ("value", Wire.String (value_to_string v));
          ("prefer", prefer_name)
        ]
    | B.Partial (_, reason) ->
      Wire.partial ?id ~reason:(B.reason_to_string reason) [])
  | Wire.Models { obj; kind; limit; prefer } ->
    let stats = Ordered.Counters.create () in
    let result =
      match (prefer, kind) with
      | true, _ ->
        Kb.Session.preferred_models ?limit ~budget ~stats ~metrics:t.metrics
          session ~obj
      | false, `Stable ->
        Kb.Session.stable_models ?limit ~budget ~stats session ~obj
      | false, `Af ->
        Kb.Session.assumption_free_models ?limit ~budget ~stats session ~obj
    in
    record_solver t stats;
    let ms = B.value result in
    let fields =
      (if prefer then
         [ ("kind", Wire.String "preferred"); ("prefer", prefer_name) ]
       else [ ("kind", Wire.String (kind_to_string kind)) ])
      @ [ ("count", Wire.Int (List.length ms));
          ("models", Wire.List (List.map json_of_model ms))
        ]
    in
    (match result with
    | B.Complete _ -> Wire.ok ?id fields
    | B.Partial (_, reason) ->
      Wire.partial ?id ~reason:(B.reason_to_string reason) fields)
  | Wire.Explain { obj; lit } ->
    let l = Lang.Parser.parse_literal lit in
    let e = Kb.Session.explain session ~obj l in
    Wire.ok ?id [ ("text", Wire.String (Ordered.Explain.to_string e)) ]
  | Wire.Stats -> stats_response t ~id
  | Wire.Version ->
    Wire.ok ?id
      [ ("version", Wire.String Wire.package_version);
        ("protocol", Wire.Int Wire.protocol_revision)
      ]
  | Wire.Snapshot -> (
    match t.persistence with
    | None ->
      Wire.error_response ?id ~kind:"input"
        "server has no data directory (start with --data-dir)"
    | Some p ->
      let seq = p.snapshot () in
      Wire.ok ?id [ ("snapshot", Wire.Int seq) ])
  | Wire.Shutdown -> Wire.ok ?id [ ("shutdown", Wire.Bool true) ]
  | Wire.Hello { seq; protocol; epoch; rid; addr } -> (
    match t.persistence with
    | None ->
      Wire.error_response ?id ~kind:"input"
        "replication requires a data directory (start the primary with \
         --data-dir)"
    | Some p ->
      if protocol <> Wire.protocol_revision then
        Wire.error_response ?id ~kind:"handshake"
          (Printf.sprintf
             "protocol revision mismatch: this server speaks %d, the \
              replica speaks %d — upgrade so both ends match"
             Wire.protocol_revision protocol)
      else begin
        let mine = p.epoch () in
        if epoch > mine then
          (* the requester has seen a newer promotion than we have: we
             are the deposed side and must not hand out history *)
          Wire.error_response ?id ~kind:"fenced"
            ~extra:[ ("epoch", Wire.Int mine) ]
            (Printf.sprintf
               "this server is fenced: it is at epoch %d but the \
                requester has seen epoch %d — a newer primary was \
                promoted"
               mine epoch)
        else begin
          let cur = p.seq () in
          if seq > cur then
            Wire.error_response ?id ~kind:"handshake"
              (Printf.sprintf
                 "replica is ahead of this primary (replica at sequence \
                  %d, primary at %d): diverged history — re-seed the \
                  replica from an empty data directory"
                 seq cur)
          else begin
            let action =
              match p.tail ~from:seq ~max:0 with
              | Ok _ -> "tail"
              | Error _ -> "snapshot"
            in
            M.incr t.metrics "repl_hellos";
            (* the greeted sequence is already durable on the replica:
               recovery replays nothing it has not fsynced *)
            (match rid with
            | Some rid -> record_ack t ~rid ?addr ~durable:seq ()
            | None -> ());
            let role =
              match t.replication with
              | Some r -> r.role ()
              | None -> "primary"
            in
            Wire.ok ?id
              [ ("role", Wire.String role);
                ("protocol", Wire.Int Wire.protocol_revision);
                ("epoch", Wire.Int mine);
                ("seq", Wire.Int cur);
                ("action", Wire.String action)
              ]
          end
        end
      end)
  | Wire.Pull { from_seq; max; epoch; rid; durable; addr } -> (
    match t.persistence with
    | None ->
      Wire.error_response ?id ~kind:"input"
        "replication requires a data directory (start the primary with \
         --data-dir)"
    | Some p ->
      let mine = p.epoch () in
      if epoch <> mine then
        (* either direction is fatal for a pull: a higher requester
           epoch means we are deposed; a lower one means the requester
           missed a promotion and must re-handshake (hello is where a
           replica adopts the current term) *)
        Wire.error_response ?id ~kind:"fenced"
          ~extra:[ ("epoch", Wire.Int mine) ]
          (if epoch > mine then
             Printf.sprintf
               "this server is fenced: it is at epoch %d but the \
                requester has seen epoch %d — a newer primary was \
                promoted"
               mine epoch
           else
             Printf.sprintf
               "pull at stale epoch %d refused: this server is at epoch \
                %d — re-handshake to adopt the current term"
               epoch mine)
      else begin
        let cur = p.seq () in
        if from_seq > cur then
          Wire.error_response ?id ~kind:"handshake"
            (Printf.sprintf
               "pull from sequence %d but this primary is at %d: diverged \
                history — re-seed the replica from an empty data directory"
               from_seq cur)
        else begin
          (match rid, durable with
          | Some rid, Some durable -> record_ack t ~rid ?addr ~durable ()
          | _ -> ());
          let max = min 4096 (Option.value ~default:512 max) in
          match p.tail ~from:from_seq ~max with
          | Ok (bytes, n) ->
            if n > 0 then M.add t.metrics "repl_records_shipped" n;
            Wire.ok ?id
              [ ("seq", Wire.Int cur);
                ("epoch", Wire.Int mine);
                ("from", Wire.Int from_seq);
                ("count", Wire.Int n);
                ("records", Wire.String (Hex.encode bytes))
              ]
          | Error oldest ->
            Wire.error_response ?id ~kind:"behind"
              (Printf.sprintf
                 "records from sequence %d were compacted away (the log \
                  now starts at %d); fetch a snapshot"
                 from_seq oldest)
        end
      end)
  | Wire.Fetch_snapshot { epoch } -> (
    match t.persistence with
    | None ->
      Wire.error_response ?id ~kind:"input"
        "replication requires a data directory (start the primary with \
         --data-dir)"
    | Some p ->
      let mine = p.epoch () in
      if epoch > mine then
        Wire.error_response ?id ~kind:"fenced"
          ~extra:[ ("epoch", Wire.Int mine) ]
          (Printf.sprintf
             "this server is fenced: it is at epoch %d but the requester \
              has seen epoch %d — a newer primary was promoted"
             mine epoch)
      else begin
        let seq, image = p.snapshot_image () in
        M.incr t.metrics "repl_snapshots_served";
        Wire.ok ?id
          [ ("seq", Wire.Int seq);
            ("epoch", Wire.Int mine);
            ("snapshot", Wire.String (Hex.encode image))
          ]
      end)
  | Wire.Promote -> (
    match t.replication with
    | None ->
      Wire.error_response ?id ~kind:"input"
        "this server is not a replica (start with --replica-of)"
    | Some r -> (
      match r.promote () with
      | Ok role ->
        Wire.ok ?id
          (("role", Wire.String role)
          :: (match t.persistence with
             | Some p ->
               [ ("epoch", Wire.Int (p.epoch ()));
                 ("seq", Wire.Int (p.seq ()))
               ]
             | None -> []))
      | Error msg -> Wire.error_response ?id ~kind:"input" msg))

(* Exception mapping: no exception escapes a worker, whatever the
   decoder accepted. *)
let guard ?id f =
  try f () with
  | B.Exhausted reason ->
    (* no sound partial payload outside the enumerations *)
    Wire.partial ?id ~reason:(B.reason_to_string reason) []
  | Ordered.Diag.Error (Ordered.Diag.Read_only { primary } as e) ->
    Wire.error_response ?id ~kind:"read_only"
      ~extra:[ ("primary", Wire.String primary) ]
      (Ordered.Diag.to_string e)
  | Ordered.Diag.Error (Ordered.Diag.Preference_cycle { cycle } as e) ->
    Wire.error_response ?id ~kind:"preference_cycle"
      ~extra:
        [ ("cycle", Wire.List (List.map (fun n -> Wire.String n) cycle)) ]
      (Ordered.Diag.to_string e)
  | Ordered.Diag.Error e ->
    Wire.error_response ?id ~kind:"diag" (Ordered.Diag.to_string e)
  | Invalid_argument msg | Failure msg ->
    Wire.error_response ?id ~kind:"input" msg
  | Lang.Lexer.Error (msg, pos) ->
    Wire.error_response ?id ~kind:"input"
      (Printf.sprintf "lexical error at %d:%d: %s" pos.line pos.col msg)
  | Lang.Parser.Error (msg, pos) ->
    Wire.error_response ?id ~kind:"input"
      (Printf.sprintf "syntax error at %d:%d: %s" pos.line pos.col msg)
  | e ->
    (* the worker must survive anything *)
    Wire.error_response ?id ~kind:"internal" (Printexc.to_string e)

let count_response t response =
  M.incr t.metrics "served";
  (match Wire.status_of_response response with
  | `Ok -> M.incr t.metrics "ok"
  | `Partial -> M.incr t.metrics "partials"
  | `Error | `Unknown -> M.incr t.metrics "errors");
  response

let handle_write t ~id verb =
  (* sequence number this write reached, captured under the io lock so
     the quorum wait below targets exactly this mutation *)
  let sync_seq = ref None in
  let response =
    guard ?id (fun () ->
        (* a replica's KB is owned by the replication stream: local
           writes would fork its history, so they bounce with a
           redirect *)
        (match t.replication with
        | Some r when r.role () = "replica" ->
          let primary = Option.value ~default:"unknown" (r.primary ()) in
          Governor.Diag.fail (Governor.Diag.Read_only { primary })
        | _ -> ());
        Shards.with_keys t.shards (write_keys verb) (fun () ->
            let n = Atomic.fetch_and_add t.writers 1 + 1 in
            M.gauge_max t.metrics "writers_peak" n;
            Fun.protect
              ~finally:(fun () ->
                ignore (Atomic.fetch_and_add t.writers (-1) : int))
              (fun () ->
                let resp, seq = serve_write t ~id verb in
                sync_seq := seq;
                resp)))
  in
  (* durability is paid outside every lock, so concurrent writers pile
     into the same group-commit window instead of serializing their
     fsyncs — and lock-free readers are never stuck behind the wait *)
  (match t.persistence with
  | Some p -> (
    match Wire.status_of_response response with
    | `Ok -> p.wait_durable ()
    | `Partial | `Error | `Unknown -> ())
  | None -> ());
  (* synchronous commit: also outside the locks, so replica pulls (which
     carry the confirmations) keep being served while writers wait *)
  match t.sync, !sync_seq with
  | Some s, Some seq -> (
    match
      wait_confirmed t ~seq ~required:s.replicas ~timeout_ms:s.timeout_ms
    with
    | `Confirmed -> response
    | `Timeout confirmed ->
      M.incr t.metrics "sync_timeouts";
      let e =
        Ordered.Diag.Sync_timeout
          { seq; required = s.replicas; confirmed; timeout_ms = s.timeout_ms }
      in
      Wire.error_response ?id ~kind:"sync_timeout"
        ~extra:[ ("seq", Wire.Int seq); ("confirmed", Wire.Int confirmed) ]
        (Ordered.Diag.to_string e))
  | _ -> response

let rec handle t (req : Wire.request) =
  let id = req.id in
  match req.verb with
  | Wire.Batch items ->
    (* one frame, many requests: each item runs the full per-verb path
       (locking, durability, sync commit, counters) in order; a decode
       failure is answered in place.  The envelope itself is not counted
       as served — the items are. *)
    M.incr t.metrics "batches";
    M.add t.metrics "batch_items" (List.length items);
    let responses =
      List.map
        (function
          | Ok item -> handle t item
          | Error message ->
            M.incr t.metrics "proto_errors";
            Wire.error_response ~kind:"proto" ("invalid request: " ^ message))
        items
    in
    Wire.ok ?id
      [ ("count", Wire.Int (List.length responses));
        ("responses", Wire.List responses)
      ]
  | verb when is_write verb -> count_response t (handle_write t ~id verb)
  | verb when is_io verb ->
    count_response t
      (guard ?id (fun () -> exclusively t (fun () -> serve t ~id req)))
  | _ ->
    (* read verbs: no lock on this path at all *)
    count_response t (guard ?id (fun () -> serve t ~id req))

let handle_line t line =
  match Wire.decode_request line with
  | Ok req -> handle t req
  | Error e ->
    M.incr t.metrics "proto_errors";
    Wire.error_response ~kind:"proto" (Wire.error_to_string e)
