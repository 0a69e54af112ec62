(* Log-shipping replication, in process: the engine-level protocol
   policy (read-only gating, handshake refusals, promote), then the two
   correctness properties from the PR contract —

   - differential: a replica driven through a random schedule of
     mutations, disconnects, restarts, partial catch-ups and primary
     compactions ends byte-identical to the primary once it drains;
   - kill sweep: a fault-injection budget kills the replica's WAL append
     at every chunk boundary in turn; recovery of the replica's own
     directory always lands on a sound prefix of the primary's history,
     and a budget-free link then converges to full equality.

   The primary is a real [Server.Daemon] on ephemeral TCP ports; the
   replica is a [Link] over its own engine and data directory, driven
   step by step ([Link.step]) for deterministic schedules.  The
   full-server tests build replicas from [Daemon.config.replica_of], as
   `olp serve --replica-of` does. *)

module P = Persist
module W = Server.Wire
module B = Governor.Budget
module Engine = Server.Engine
module Daemon = Server.Daemon
module Link = Server.Link
module Store = Kb.Store

let iters =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

let state = ref 0x51A9C4D3

let rand bound =
  state := (!state * 1664525) + 1013904223;
  (!state lsr 9) mod bound

let config dir = { P.dir; fsync = false; snapshot_every = 0; group_commit_ms = 0 }

let str_member = Helpers.str_member
let status = Helpers.status

let error_kind j =
  match W.member "error" j with
  | Some e -> Option.value ~default:"?" (str_member "kind" e)
  | None -> "?"

let error_message j =
  match W.member "error" j with
  | Some e -> Option.value ~default:"" (str_member "message" e)
  | None -> ""

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Engine-level protocol policy (no sockets)                           *)
(* ------------------------------------------------------------------ *)

let stub_replication ?(role = "replica") () =
  { Engine.role = (fun () -> role);
    primary = (fun () -> Some "unix:prim.sock");
    details = (fun () -> [ ("primary", W.String "unix:prim.sock") ]);
    promote = (fun () -> Ok "primary")
  }

let test_read_only_gate () =
  let engine = Engine.create () in
  Engine.set_replication engine (stub_replication ());
  let j =
    Engine.handle_line engine {|{"op":"add_rule","obj":"x","rule":"p."}|}
  in
  Alcotest.(check string) "write refused" "error" (status j);
  Alcotest.(check string) "typed read_only" "read_only" (error_kind j);
  Alcotest.(check bool) "redirect names the primary" true
    (contains ~needle:"unix:prim.sock" (error_message j));
  (* reads still serve, and stats reports the role *)
  let j = Engine.handle_line engine {|{"op":"stats"}|} in
  Alcotest.(check string) "stats ok on a replica" "ok" (status j);
  (match W.member "replication" j with
  | Some r ->
    Alcotest.(check (option string)) "role surfaced" (Some "replica")
      (str_member "role" r)
  | None -> Alcotest.fail "stats lacks the replication object");
  (* a primary role does not gate writes *)
  Engine.set_replication engine (stub_replication ~role:"primary" ());
  let j =
    Engine.handle_line engine
      {|{"op":"define","name":"x","isa":[],"rules":"p."}|}
  in
  Alcotest.(check string) "primary accepts writes" "ok" (status j)

let test_promote_verb () =
  let engine = Engine.create () in
  let j = Engine.handle_line engine {|{"op":"promote"}|} in
  Alcotest.(check string) "promote off a non-replica" "error" (status j);
  Alcotest.(check string) "typed as input" "input" (error_kind j);
  Engine.set_replication engine (stub_replication ());
  let j = Engine.handle_line engine {|{"op":"promote"}|} in
  Alcotest.(check string) "promote on a replica" "ok" (status j);
  Alcotest.(check (option string)) "new role reported" (Some "primary")
    (str_member "role" j)

let with_persistence f =
  let dir = Test_persist.fresh_dir () in
  let p, store, _ = P.open_dir (config dir) in
  let session = Kb.Session.of_store store in
  Kb.Session.on_mutation session (fun m -> P.append p m);
  let engine =
    Engine.create ~session
      ~persistence:
        { Engine.snapshot = (fun () -> P.snapshot p);
          seq = (fun () -> P.seq p);
          epoch = (fun () -> P.epoch p);
          wait_durable = (fun () -> P.wait_durable p);
          tail =
            (fun ~from ~max ->
              match P.tail p ~from ~max with
              | Ok _ as ok -> ok
              | Error (`Too_old base) -> Error base);
          snapshot_image = (fun () -> P.snapshot_image p)
        }
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      P.close p;
      Test_persist.rm_rf dir)
    (fun () -> f engine session)

let test_handshake () =
  with_persistence @@ fun engine session ->
  Kb.Session.load session "component c { p. q :- p. }";
  (* a replica speaking an older protocol revision is refused, typed *)
  let j =
    Engine.handle_line engine {|{"op":"hello","seq":0,"protocol":2}|}
  in
  Alcotest.(check string) "revision mismatch refused" "error" (status j);
  Alcotest.(check string) "typed handshake error" "handshake" (error_kind j);
  Alcotest.(check bool) "message names both revisions" true
    (contains ~needle:"revision" (error_message j));
  (* a replica ahead of the primary has a diverged history *)
  let j =
    Engine.handle_line engine {|{"op":"hello","seq":99,"protocol":9}|}
  in
  Alcotest.(check string) "diverged replica refused" "handshake"
    (error_kind j);
  (* the good case tells the replica to tail *)
  let j =
    Engine.handle_line engine {|{"op":"hello","seq":0,"protocol":9}|}
  in
  Alcotest.(check string) "hello ok" "ok" (status j);
  Alcotest.(check (option string)) "action is tail" (Some "tail")
    (str_member "action" j);
  (* replication verbs without a data directory are input errors *)
  let bare = Engine.create () in
  let j = Engine.handle_line bare {|{"op":"hello","seq":0,"protocol":9}|} in
  Alcotest.(check string) "hello without persistence" "input" (error_kind j)

(* ------------------------------------------------------------------ *)
(* A real primary and a step-driven replica                            *)
(* ------------------------------------------------------------------ *)

let with_primary f =
  let dir = Test_persist.fresh_dir () in
  Fun.protect ~finally:(fun () -> Test_persist.rm_rf dir) @@ fun () ->
  Helpers.with_daemon ~persist:(config dir)
    ~replicate_on:(`Tcp ("127.0.0.1", 0))
  @@ fun d -> f d (Option.get (Daemon.replication_address d))

type node = {
  dir : string;
  persist : P.t;
  store : Store.t;
  link : Link.t;
  budget : B.t option ref;  (* armed by the kill sweep *)
}

let make_node ~primary dir =
  let p, store, _ = P.open_dir (config dir) in
  let session = Kb.Session.of_store store in
  let budget = ref None in
  Kb.Session.on_mutation session (fun m -> P.append ?budget:!budget p m);
  let engine = Engine.create ~session () in
  let link = Link.create ~engine ~persist:p (Link.default_config primary) in
  { dir; persist = p; store; link; budget }

let dispose n =
  Link.stop n.link;
  P.close n.persist

let step_once label link =
  match Link.step link with
  | (`Applied _ | `Ready | `Idle) as r -> r
  | `Retry msg -> Alcotest.failf "%s: transient failure: %s" label msg
  | `Fatal msg -> Alcotest.failf "%s: replication halted: %s" label msg
  | `Stopped -> Alcotest.failf "%s: link stopped" label

let catch_up label link =
  let rec go fuel =
    if fuel = 0 then Alcotest.failf "%s: catch-up did not converge" label
    else
      match step_once label link with
      | `Applied _ | `Ready -> go (fuel - 1)
      | `Idle -> ()
  in
  go 10_000

(* The primary's write path without the socket round-trip: apply through
   the engine's session under its lock, exactly as [Engine.handle] does,
   and mirror the mutation for the expected-state comparison. *)
let mutate_primary d mirror m =
  Store.apply mirror m;
  let engine = Daemon.engine d in
  Engine.exclusively engine (fun () ->
      Kb.Session.apply (Engine.session engine) m)

let test_differential () =
  with_primary @@ fun d repl_addr ->
  let mirror = Store.create () in
  let pp = Option.get (Daemon.persist_handle d) in
  let node = ref (make_node ~primary:repl_addr (Test_persist.fresh_dir ())) in
  let steps = max 60 (iters / 4) in
  for _ = 1 to steps do
    match rand 12 with
    | 0 -> Link.disconnect !node.link
    | 1 ->
      (* replica restart: reopen the same directory and resume *)
      let dir = !node.dir in
      dispose !node;
      node := make_node ~primary:repl_addr dir
    | 2 ->
      (* primary compaction: forces a snapshot bootstrap on any replica
         whose position falls behind the retained log *)
      Engine.exclusively (Daemon.engine d) (fun () ->
          ignore (P.compact pp : int * int))
    | 3 | 4 ->
      (* partial catch-up: a few protocol steps, wherever they land *)
      for _ = 1 to 1 + rand 3 do
        ignore (step_once "partial" !node.link : [ `Applied of int | `Ready | `Idle ])
      done
    | _ -> mutate_primary d mirror (Test_persist.gen_mutation mirror)
  done;
  catch_up "final drain" !node.link;
  Alcotest.(check string) "replica state equals primary state"
    (Test_persist.repr mirror)
    (Test_persist.repr !node.store);
  Alcotest.(check int) "sequence numbers agree" (P.seq pp)
    (P.seq !node.persist);
  let status = Link.status !node.link in
  Alcotest.(check int) "no lag after drain" 0 status.Link.lag;
  (* the replica's own WAL is the full story: a cold restart of the
     replica directory reproduces the state without the primary *)
  let dir = !node.dir in
  dispose !node;
  let p2, store2, _ = P.open_dir (config dir) in
  Alcotest.(check string) "replica state is durable"
    (Test_persist.repr mirror) (Test_persist.repr store2);
  P.close p2;
  Test_persist.rm_rf dir

let test_promotion () =
  with_primary @@ fun d repl_addr ->
  let mirror = Store.create () in
  for _ = 1 to 5 do
    mutate_primary d mirror (Test_persist.gen_mutation mirror)
  done;
  let node = make_node ~primary:repl_addr (Test_persist.fresh_dir ()) in
  catch_up "before promotion" node.link;
  (match Link.promote node.link with
  | Ok role -> Alcotest.(check string) "promoted" "primary" role
  | Error e -> Alcotest.failf "promotion refused: %s" e);
  (match Link.promote node.link with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second promotion accepted");
  Alcotest.(check string) "role flipped" "primary"
    (Link.status node.link).Link.role;
  (match Link.step node.link with
  | `Stopped -> ()
  | _ -> Alcotest.fail "promoted link still stepping");
  (* the promoted store keeps its history and accepts divergence *)
  Alcotest.(check string) "state carried across promotion"
    (Test_persist.repr mirror) (Test_persist.repr node.store);
  let dir = node.dir in
  dispose node;
  Test_persist.rm_rf dir

(* A record of about 700 KB ships hex-encoded, so its pull reply and,
   once the primary compacts, its snapshot reply are past the daemon's
   1 MiB request cap.  Replies have no cap: the replica takes the record
   by tail, and a fresh replica takes it by bootstrap. *)
let test_large_record () =
  with_primary @@ fun d repl_addr ->
  let mirror = Store.create () in
  mutate_primary d mirror
    (Store.Load
       { src =
           Printf.sprintf "component big { p(%s). }"
             (String.make 700_000 'a')
       });
  let expected = Test_persist.repr mirror in
  let via label =
    let node = make_node ~primary:repl_addr (Test_persist.fresh_dir ()) in
    catch_up label node.link;
    Alcotest.(check string) (label ^ ": replica equals primary") expected
      (Test_persist.repr node.store);
    let bootstraps = (Link.status node.link).Link.bootstraps in
    let dir = node.dir in
    dispose node;
    Test_persist.rm_rf dir;
    bootstraps
  in
  Alcotest.(check int) "by tail" 0 (via "tail");
  Engine.exclusively (Daemon.engine d) (fun () ->
      ignore (P.compact (Option.get (Daemon.persist_handle d)) : int * int));
  Alcotest.(check int) "by bootstrap" 1 (via "bootstrap")

(* ------------------------------------------------------------------ *)
(* Kill sweep: die at every WAL chunk boundary during apply            *)
(* ------------------------------------------------------------------ *)

let test_kill_sweep () =
  with_primary @@ fun d repl_addr ->
  let script = Test_persist.sample_mutations in
  let mirror = Store.create () in
  List.iter (fun m -> mutate_primary d mirror m) script;
  let full = Test_persist.repr mirror in
  (* expected.(i) = state after the first i primary mutations *)
  let expected =
    let s = Store.create () in
    let initial = Test_persist.repr s in
    let after =
      List.map
        (fun m ->
          Store.apply s m;
          Test_persist.repr s)
        script
    in
    Array.of_list (initial :: after)
  in
  let k = ref 1 in
  let fired = ref true in
  while !fired do
    let dir = Test_persist.fresh_dir () in
    let node = make_node ~primary:repl_addr dir in
    node.budget := Some (B.with_trip_at ~step:!k ());
    let tripped =
      try
        catch_up "sweep" node.link;
        false
      with B.Exhausted B.Fault -> true
    in
    fired := tripped;
    dispose node;
    (* the replica's directory recovers to a sound prefix of the
       primary's history — never junk, never beyond the kill point *)
    let p2, store2, r2 = P.open_dir (config dir) in
    Alcotest.(check bool)
      (Printf.sprintf "trip at %d: prefix length sane" !k)
      true
      (r2.P.seq >= 0 && r2.P.seq <= List.length script);
    Alcotest.(check string)
      (Printf.sprintf "trip at %d: recovered prefix" !k)
      expected.(r2.P.seq)
      (Test_persist.repr store2);
    P.close p2;
    (* a budget-free link resumes from the prefix and converges *)
    let node2 = make_node ~primary:repl_addr dir in
    catch_up "after recovery" node2.link;
    Alcotest.(check string)
      (Printf.sprintf "trip at %d: converges to the primary" !k)
      full
      (Test_persist.repr node2.store);
    dispose node2;
    Test_persist.rm_rf dir;
    if tripped then incr k
  done;
  Alcotest.(check bool)
    (Printf.sprintf "swept %d kill points" !k)
    true (!k > 5)

(* ------------------------------------------------------------------ *)
(* Full in-process servers, replicas built from their daemon config:   *)
(* fencing, synchronous commit, chained topologies, replica-set client *)
(* ------------------------------------------------------------------ *)

type server = { sdaemon : Daemon.t; sthread : Thread.t }

let spawn ?replica_of ?(replicate = true) ?sync dir =
  let sdaemon, sthread =
    Helpers.start_daemon ~persist:(config dir)
      ?replicate_on:(if replicate then Some (`Tcp ("127.0.0.1", 0)) else None)
      ?sync
      ?replica_of:(Option.map Link.default_config replica_of)
      ()
  in
  { sdaemon; sthread }

let shutdown s = Helpers.stop_daemon (s.sdaemon, s.sthread)

let repl_addr s = Option.get (Daemon.replication_address s.sdaemon)
let persist_of s = Option.get (Daemon.persist_handle s.sdaemon)
let seq_of s = P.seq (persist_of s)

let wait_for ~msg f =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      ignore (Unix.select [] [] [] 0.02);
      go ()
    end
  in
  go ()

let must_ok label j =
  if status j <> "ok" then
    Alcotest.failf "%s: %s" label (W.to_string j);
  j

(* Epoch fencing: a revived stale primary is refused at every protocol
   boundary — hello, pull and fetch_snapshot — both at the engine level
   and by a real link, which halts with a typed fatal error. *)
let test_fencing () =
  let pdir = Test_persist.fresh_dir () in
  let prim = spawn pdir in
  ignore
    (must_ok "load"
       (Engine.handle_line (Daemon.engine prim.sdaemon)
          {|{"op":"load","src":"component c { p. }"}|}));
  let rdir = Test_persist.fresh_dir () in
  let node = make_node ~primary:(repl_addr prim) rdir in
  catch_up "fencing" node.link;
  (* the primary dies; the replica is promoted and now owns epoch 1 *)
  shutdown prim;
  (match Link.promote node.link with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "promotion refused: %s" e);
  Alcotest.(check int) "promotion bumps the epoch" 1
    (Link.status node.link).Link.epoch;
  dispose node;
  (* revive the old primary from its untouched directory: still epoch 0,
     and it must refuse anyone who witnessed the promotion *)
  let prim2 = spawn pdir in
  let e2 = Daemon.engine prim2.sdaemon in
  let fenced line =
    let j = Engine.handle_line e2 line in
    Alcotest.(check string) ("typed fence: " ^ line) "fenced" (error_kind j)
  in
  fenced {|{"op":"hello","seq":0,"protocol":9,"epoch":1,"rid":"x"}|};
  fenced {|{"op":"pull","from":0,"epoch":1,"rid":"x"}|};
  fenced {|{"op":"fetch_snapshot","epoch":1}|};
  (* a link over the promoted directory refuses to follow it *)
  let node2 = make_node ~primary:(repl_addr prim2) rdir in
  (match Link.step node2.link with
  | `Fatal msg ->
    Alcotest.(check bool) "halt names the fence" true
      (contains ~needle:"fenced" msg)
  | _ -> Alcotest.fail "a deposed primary was followed");
  dispose node2;
  shutdown prim2;
  Test_persist.rm_rf pdir;
  Test_persist.rm_rf rdir

(* Promotion arriving in the middle of a burst of shipped mutations:
   the store always lands on the exact prefix the replica's WAL holds
   (never mid-record, never mid-batch), the epoch is bumped exactly
   once, and a second promotion is refused. *)
let test_promote_mid_burst () =
  with_primary @@ fun d repl_addr ->
  let mirror = Store.create () in
  let node = make_node ~primary:repl_addr (Test_persist.fresh_dir ()) in
  Link.start node.link;
  let n = 150 in
  let expected = Array.make (n + 1) (Test_persist.repr mirror) in
  for i = 1 to n do
    let m = Test_persist.gen_mutation mirror in
    mutate_primary d mirror m;
    expected.(i) <- Test_persist.repr mirror;
    if i = n / 3 then Link.request_promote node.link
  done;
  wait_for ~msg:"promotion lands" (fun () ->
      (Link.status node.link).Link.role = "primary");
  Link.stop node.link;
  let s = Link.status node.link in
  Alcotest.(check int) "epoch bumped exactly once" 1 s.Link.epoch;
  let seq = P.seq node.persist in
  Alcotest.(check bool) "prefix length sane" true (seq >= 0 && seq <= n);
  Alcotest.(check string) "sound prefix at the cut" expected.(seq)
    (Test_persist.repr node.store);
  (match Link.promote node.link with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second promotion accepted");
  Alcotest.(check int) "idempotent: epoch still 1" 1
    (Link.status node.link).Link.epoch;
  let dir = node.dir in
  dispose node;
  Test_persist.rm_rf dir

(* Synchronous commit: with no replica attached the ack degrades to a
   typed sync_timeout (mutation applied and locally durable); with one
   attached, every acked write is on the replica's stable storage by
   the time the client sees the ack. *)
let test_sync_commit () =
  let pdir = Test_persist.fresh_dir () in
  let prim = spawn ~sync:{ Engine.replicas = 1; timeout_ms = 1200 } pdir in
  let engine = Daemon.engine prim.sdaemon in
  let j =
    Engine.handle_line engine {|{"op":"load","src":"component c { p. }"}|}
  in
  Alcotest.(check string) "no replica: degraded" "error" (status j);
  Alcotest.(check string) "typed sync_timeout" "sync_timeout" (error_kind j);
  let j = Engine.handle_line engine {|{"op":"query","obj":"c","lit":"p"}|} in
  Alcotest.(check string) "mutation applied despite degrade" "ok" (status j);
  let rdir = Test_persist.fresh_dir () in
  let repl = spawn ~replica_of:(repl_addr prim) ~replicate:false rdir in
  wait_for ~msg:"replica catches up" (fun () -> seq_of repl >= 1);
  for i = 1 to 5 do
    ignore
      (must_ok
         (Printf.sprintf "sync write %d" i)
         (Engine.handle_line engine
            (Printf.sprintf
               {|{"op":"add_rule","obj":"c","rule":"q%d."}|} i)));
    (* the ack was held until this replica confirmed durability *)
    Alcotest.(check bool)
      (Printf.sprintf "write %d durable on the replica at ack time" i)
      true
      (seq_of repl >= i + 1)
  done;
  let stats = W.to_string (Engine.handle_line engine {|{"op":"stats"}|}) in
  Alcotest.(check bool) "stats reports the sync policy" true
    (contains ~needle:{|"sync_replicas":1|} stats);
  Alcotest.(check bool) "stats counts the degrade" true
    (contains ~needle:{|"sync_timeouts":1|} stats);
  shutdown repl;
  shutdown prim;
  let p1, s1, _ = P.open_dir (config pdir) in
  let p2, s2, _ = P.open_dir (config rdir) in
  Alcotest.(check string) "replica holds every acked write"
    (Test_persist.repr s1) (Test_persist.repr s2);
  P.close p1;
  P.close p2;
  Test_persist.rm_rf pdir;
  Test_persist.rm_rf rdir

(* A chain primary -> mid -> leaf: records flow through, and when the
   primary dies and the middle is promoted, the leaf re-handshakes,
   adopts the new epoch and keeps following — the chained failover. *)
let test_chained_failover () =
  let d1 = Test_persist.fresh_dir () in
  let d2 = Test_persist.fresh_dir () in
  let d3 = Test_persist.fresh_dir () in
  let prim = spawn d1 in
  let pe = Daemon.engine prim.sdaemon in
  ignore
    (must_ok "load"
       (Engine.handle_line pe {|{"op":"load","src":"component c { p. }"}|}));
  let mid = spawn ~replica_of:(repl_addr prim) d2 in
  let leaf = spawn ~replica_of:(repl_addr mid) ~replicate:false d3 in
  for i = 1 to 5 do
    ignore
      (must_ok "chain write"
         (Engine.handle_line pe
            (Printf.sprintf
               {|{"op":"add_rule","obj":"c","rule":"q%d."}|} i)))
  done;
  wait_for ~msg:"leaf catches up through the chain" (fun () ->
      seq_of leaf >= 6);
  shutdown prim;
  let me = Daemon.engine mid.sdaemon in
  let j = must_ok "promote mid" (Engine.handle_line me {|{"op":"promote"}|}) in
  (match W.member "epoch" j with
  | Some (W.Int 1) -> ()
  | _ -> Alcotest.failf "promote reply lacks epoch 1: %s" (W.to_string j));
  ignore
    (must_ok "write after failover"
       (Engine.handle_line me
          {|{"op":"add_rule","obj":"c","rule":"after_failover."}|}));
  wait_for ~msg:"leaf follows the promoted mid" (fun () -> seq_of leaf >= 7);
  wait_for ~msg:"leaf adopts the new epoch" (fun () ->
      P.epoch (persist_of leaf) = 1);
  shutdown leaf;
  shutdown mid;
  let p2, s2, r2 = P.open_dir (config d2) in
  let p3, s3, r3 = P.open_dir (config d3) in
  Alcotest.(check string) "leaf equals the promoted mid"
    (Test_persist.repr s2) (Test_persist.repr s3);
  Alcotest.(check int) "mid recovered at epoch 1" 1 r2.P.epoch;
  Alcotest.(check int) "leaf recovered at epoch 1" 1 r3.P.epoch;
  P.close p2;
  P.close p3;
  List.iter Test_persist.rm_rf [ d1; d2; d3 ]

(* The replica-set client: seeded only with the replica's address it
   still lands writes on the primary (following the typed redirect),
   round-robins reads, and rides out a failover. *)
let test_rset_failover () =
  let d1 = Test_persist.fresh_dir () in
  let d2 = Test_persist.fresh_dir () in
  let prim = spawn d1 in
  ignore
    (must_ok "load"
       (Engine.handle_line (Daemon.engine prim.sdaemon)
          {|{"op":"load","src":"component c { p. }"}|}));
  let repl = spawn ~replica_of:(repl_addr prim) ~replicate:false d2 in
  wait_for ~msg:"replica catches up" (fun () -> seq_of repl >= 1);
  let rset = Server.Rset.create [ Daemon.address repl.sdaemon ] in
  (match
     Server.Rset.request_line ~retry:5. rset
       {|{"op":"add_rule","obj":"c","rule":"q1."}|}
   with
  | Ok j -> ignore (must_ok "redirected write" j)
  | Error e -> Alcotest.failf "redirected write failed: %s" e);
  Alcotest.(check (option string)) "primary learned from the redirect"
    (Some (Server.Net.address_to_string (repl_addr prim)))
    (Server.Rset.primary rset);
  wait_for ~msg:"write reaches the replica" (fun () -> seq_of repl >= 2);
  for i = 1 to 4 do
    match
      Server.Rset.request_line rset {|{"op":"query","obj":"c","lit":"q1"}|}
    with
    | Ok j ->
      ignore (must_ok (Printf.sprintf "read %d" i) j);
      Alcotest.(check (option string))
        (Printf.sprintf "read %d sees the write" i)
        (Some "true") (str_member "value" j)
    | Error e -> Alcotest.failf "read %d failed: %s" i e
  done;
  (* every write verb lands on the primary: each from a fresh set that
     knows only the replica, so its own class decides where it goes *)
  List.iter
    (fun (op, line) ->
      let before = seq_of prim in
      let fresh = Server.Rset.create [ Daemon.address repl.sdaemon ] in
      (match Server.Rset.request_line ~retry:5. fresh line with
      | Ok j -> ignore (must_ok op j)
      | Error e -> Alcotest.failf "%s failed: %s" op e);
      Alcotest.(check (option string)) (op ^ " sent to the primary")
        (Some (Server.Net.address_to_string (repl_addr prim)))
        (Server.Rset.primary fresh);
      Alcotest.(check int) (op ^ " logged on the primary") (before + 1)
        (seq_of prim);
      Server.Rset.close fresh)
    [ ("load", {|{"op":"load","src":"component d { r. }"}|});
      ("define", {|{"op":"define","name":"e","isa":["d"],"rules":"s."}|});
      ("add_rule", {|{"op":"add_rule","obj":"d","rule":"t."}|});
      ("remove_rule", {|{"op":"remove_rule","obj":"d","rule":"t."}|});
      ("new_version", {|{"op":"new_version","name":"d"}|});
      ("set_preference", {|{"op":"set_preference","rule":"a","over":"b"}|});
      ("clear_preference", {|{"op":"clear_preference","rule":"a","over":"b"}|})
    ];
  (* failover: the primary dies, the replica is promoted, and the same
     client keeps working without reconfiguration *)
  shutdown prim;
  ignore
    (must_ok "promote"
       (Engine.handle_line (Daemon.engine repl.sdaemon) {|{"op":"promote"}|}));
  (match
     Server.Rset.request_line ~retry:10. rset
       {|{"op":"add_rule","obj":"c","rule":"q2."}|}
   with
  | Ok j -> ignore (must_ok "write after failover" j)
  | Error e -> Alcotest.failf "write after failover failed: %s" e);
  (match
     Server.Rset.request_line ~retry:5. rset
       {|{"op":"query","obj":"c","lit":"q2"}|}
   with
  | Ok j ->
    Alcotest.(check (option string)) "failover write visible" (Some "true")
      (str_member "value" j)
  | Error e -> Alcotest.failf "read after failover failed: %s" e);
  Server.Rset.close rset;
  shutdown repl;
  List.iter Test_persist.rm_rf [ d1; d2 ]

let suite =
  [ Alcotest.test_case "read-only gate and stats role" `Quick
      test_read_only_gate;
    Alcotest.test_case "promote verb" `Quick test_promote_verb;
    Alcotest.test_case "handshake refusals are typed" `Quick test_handshake;
    Alcotest.test_case "differential: replica equals primary" `Quick
      test_differential;
    Alcotest.test_case "promotion detaches and keeps state" `Quick
      test_promotion;
    Alcotest.test_case "a record past the request cap replicates" `Quick
      test_large_record;
    Alcotest.test_case "kill sweep at every append boundary" `Quick
      test_kill_sweep;
    Alcotest.test_case "fencing at every protocol boundary" `Quick
      test_fencing;
    Alcotest.test_case "promotion mid-burst lands on a sound prefix" `Quick
      test_promote_mid_burst;
    Alcotest.test_case "synchronous commit holds acks for the replica" `Quick
      test_sync_commit;
    Alcotest.test_case "chained replica follows a mid-chain promotion" `Quick
      test_chained_failover;
    Alcotest.test_case "replica-set client rides out a failover" `Quick
      test_rset_failover
  ]
