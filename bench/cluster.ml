(* Cluster benchmark: the failover PR's three numbers, measured over a
   real 1-primary / 2-replica chain (primary -> mid -> leaf, the mid
   node re-serving its own log), each node built from its
   [Server.Daemon.config] as `olp serve` builds it.
   Emits BENCH_PR6.json —

   - commit: write latency/throughput over the socket, asynchronous
     (ack after local durability) versus synchronous (--sync-replicas 1:
     ack held until the replica confirmed durability);
   - chain_reads: the same read mix hammered against every node of the
     chain at once — the aggregate QPS a replica tree buys;
   - failover: the primary dies, the mid node is promoted, and a
     replica-set client seeded with all three addresses rides it out —
     time from the kill to the first successful write, and until the
     leaf has adopted the new epoch and caught up through the chain.

   Flags: --quick (small counts; used by the cram well-formedness
   test), --out FILE (default BENCH_PR6.json). *)

open Harness
module P = Persist

(* ------------------------------------------------------------------ *)
(* Topology: servers built from their daemon config                   *)
(* ------------------------------------------------------------------ *)

type node = { daemon : Server.Daemon.t; thread : Thread.t }

(* replicas poll tightly so the commit numbers measure the protocol,
   not the idle heartbeat interval *)
let poll_interval = 0.002

let spawn ?replica_of ?(replicate = true) ?sync dir =
  let d =
    daemon ~persist:(persist_config dir)
      ?replicate_on:(if replicate then Some (`Tcp ("127.0.0.1", 0)) else None)
      ?sync
      ?replica_of:
        (Option.map
           (fun primary ->
             { (Server.Link.default_config primary) with poll_interval })
           replica_of)
      ()
  in
  { daemon = d; thread = start d }

let shutdown n = stop n.daemon n.thread

let repl_addr n =
  match Server.Daemon.replication_address n.daemon with
  | Some a -> a
  | None -> die "node has no replication listener"

let persist_of n = Option.get (Server.Daemon.persist_handle n.daemon)
let seq_of n = P.seq (persist_of n)

let wait_for ~msg f =
  let deadline = Unix.gettimeofday () +. 60. in
  while not (f ()) do
    if Unix.gettimeofday () > deadline then die "timed out waiting for %s" msg;
    ignore (Unix.select [] [] [] 0.002)
  done

(* ------------------------------------------------------------------ *)
(* Measurements                                                        *)
(* ------------------------------------------------------------------ *)

type commit_run = {
  commit : string;  (* "async" | "sync-1" *)
  writes : int;
  elapsed_ns : int;
  writes_per_sec : float;
  mean_us : float;
  p99_us : float;
}

let mutation_line i =
  Printf.sprintf {|{"op":"add_rule","obj":"facts","rule":"p(%d)."}|} i

(* one primary + one tightly-polling replica; [writes] socket round
   trips, each individually timed *)
let commit_run ~commit ~sync ~writes =
  let pd = fresh_dir () and rd = fresh_dir () in
  let prim = spawn ?sync:(Option.map Fun.id sync) pd in
  let repl = spawn ~replica_of:(repl_addr prim) ~replicate:false rd in
  let c = connect (Server.Daemon.address prim.daemon) in
  ignore
    (expect_ok c
       {|{"op":"define","name":"facts","isa":[],"rules":"q(X) :- p(X)."}|});
  wait_for ~msg:"replica catch-up" (fun () -> seq_of repl >= 1);
  let lat = Array.make writes 0. in
  let elapsed =
    time (fun () ->
        for i = 0 to writes - 1 do
          lat.(i) <- time (fun () -> ignore (expect_ok c (mutation_line i)))
        done)
  in
  Server.Client.close c;
  shutdown repl;
  shutdown prim;
  rm_rf pd;
  rm_rf rd;
  Array.sort compare lat;
  let mean = Array.fold_left ( +. ) 0. lat /. float_of_int writes in
  { commit;
    writes;
    elapsed_ns = int_of_float (elapsed *. 1e9);
    writes_per_sec = float_of_int writes /. elapsed;
    mean_us = mean *. 1e6;
    p99_us = lat.(min (writes - 1) (writes * 99 / 100)) *. 1e6
  }

type read_run = {
  target : string;
  clients : int;
  requests : int;
  qps : float;
}

let mix =
  [| {|{"op":"query","obj":"facts","lit":"q(1)"}|};
     {|{"op":"query","obj":"facts","lit":"p(1)"}|};
     {|{"op":"query","obj":"facts","lit":"q(2)"}|};
     {|{"op":"query","obj":"facts","lit":"p(0)"}|}
  |]

(* hammer every node at once: per-node QPS under contention sums to the
   aggregate a load balancer over the tree would see.  Every client
   starts from one common instant; a node's QPS divides its requests by
   the time until its own last client finished, so a slower node reads
   slower instead of sharing the slowest node's elapsed time. *)
let chain_reads ~clients ~per_client targets =
  let finished = List.map (fun _ -> Array.make clients 0.) targets in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.concat
      (List.map2
         (fun (_, addr) fin ->
           List.init clients (fun ci ->
               Thread.create
                 (fun () ->
                   let c = connect addr in
                   for i = 0 to per_client - 1 do
                     ignore (expect_ok c mix.((ci + i) mod Array.length mix))
                   done;
                   Server.Client.close c;
                   fin.(ci) <- Unix.gettimeofday ())
                 ()))
         targets finished)
  in
  List.iter Thread.join threads;
  List.map2
    (fun (target, _) fin ->
      let elapsed = Array.fold_left max t0 fin -. t0 in
      { target;
        clients;
        requests = clients * per_client;
        qps = float_of_int (clients * per_client) /. elapsed
      })
    targets finished

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let quick = ref false in
  let out = ref "BENCH_PR6.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | arg :: _ ->
      Printf.eprintf "cluster: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let writes = if !quick then 60 else 500 in
  let per_client = if !quick then 25 else 300 in
  let clients = 2 in

  (* 1. the price of synchronous commit, same workload either way *)
  let commits =
    [ commit_run ~commit:"async" ~sync:None ~writes;
      commit_run ~commit:"sync-1"
        ~sync:(Some { Server.Engine.replicas = 1; timeout_ms = 10_000 })
        ~writes
    ]
  in

  (* 2. the chain: primary -> mid (re-serving its log) -> leaf *)
  let pd = fresh_dir () and md = fresh_dir () and ld = fresh_dir () in
  let prim = spawn pd in
  let mid = spawn ~replica_of:(repl_addr prim) md in
  let leaf = spawn ~replica_of:(repl_addr mid) ~replicate:false ld in
  let c = connect (Server.Daemon.address prim.daemon) in
  ignore
    (expect_ok c
       {|{"op":"define","name":"facts","isa":[],"rules":"q(X) :- p(X)."}|});
  for i = 0 to 9 do
    ignore (expect_ok c (mutation_line i))
  done;
  Server.Client.close c;
  wait_for ~msg:"leaf catch-up" (fun () -> seq_of leaf >= 11);
  let reads =
    chain_reads ~clients ~per_client
      [ ("primary", Server.Daemon.address prim.daemon);
        ("mid", Server.Daemon.address mid.daemon);
        ("leaf", Server.Daemon.address leaf.daemon)
      ]
  in
  let aggregate_qps = List.fold_left (fun a r -> a +. r.qps) 0. reads in

  (* 3. failover: kill the primary, promote the mid node, and time a
     replica-set client's first successful write; then wait for the
     leaf to adopt the new epoch through the chain *)
  let rset =
    Server.Rset.create
      [ Server.Daemon.address prim.daemon;
        Server.Daemon.address mid.daemon;
        Server.Daemon.address leaf.daemon
      ]
  in
  (match
     Server.Rset.request_line ~retry:5. rset
       {|{"op":"add_rule","obj":"facts","rule":"before_failover."}|}
   with
  | Ok j when W.member "status" j = Some (W.String "ok") -> ()
  | Ok j -> die "pre-failover write answered %s" (W.to_string j)
  | Error e -> die "pre-failover write: %s" e);
  wait_for ~msg:"leaf sees the pre-failover write" (fun () ->
      seq_of leaf >= 12);
  let t0 = Unix.gettimeofday () in
  Server.Daemon.stop prim.daemon;
  (match
     Server.Engine.handle_line (Server.Daemon.engine mid.daemon)
       {|{"op":"promote"}|}
   with
  | j when W.member "status" j = Some (W.String "ok") -> ()
  | j -> die "promote: %s" (W.to_string j));
  let first_write =
    match
      Server.Rset.request_line ~retry:30. rset
        {|{"op":"add_rule","obj":"facts","rule":"after_failover."}|}
    with
    | Ok j when W.member "status" j = Some (W.String "ok") ->
      Unix.gettimeofday () -. t0
    | Ok j -> die "post-failover write answered %s" (W.to_string j)
    | Error e -> die "post-failover write: %s" e
  in
  wait_for ~msg:"leaf follows the promoted mid" (fun () ->
      seq_of leaf >= 13 && P.epoch (persist_of leaf) = 1);
  let chain_follow = Unix.gettimeofday () -. t0 in
  Server.Rset.close rset;
  Thread.join prim.thread;
  shutdown leaf;
  shutdown mid;
  List.iter rm_rf [ pd; md; ld ];

  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"PR6 cluster\",\n  \"mode\": \"%s\",\n"
    (if !quick then "quick" else "full");
  p "  \"commit\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"commit\": \"%s\", \"writes\": %d, \"elapsed_ns\": %d, \
         \"writes_per_sec\": %.1f, \"mean_us\": %.1f, \"p99_us\": %.1f}%s\n"
        r.commit r.writes r.elapsed_ns r.writes_per_sec r.mean_us r.p99_us
        (if i = List.length commits - 1 then "" else ","))
    commits;
  p "  ],\n  \"chain_reads\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"target\": \"%s\", \"clients\": %d, \"requests\": %d, \
         \"requests_per_sec\": %.1f}%s\n"
        r.target r.clients r.requests r.qps
        (if i = List.length reads - 1 then "" else ","))
    reads;
  let of_commit c = List.find (fun r -> r.commit = c) commits in
  let async = of_commit "async" and sync = of_commit "sync-1" in
  p
    "  ],\n\
    \  \"failover\": {\"first_write_ms\": %.1f, \"chain_follow_ms\": %.1f},\n"
    (first_write *. 1e3) (chain_follow *. 1e3);
  p
    "  \"summary\": {\"async_writes_per_sec\": %.1f, \
     \"sync_writes_per_sec\": %.1f, \"sync_over_async_mean_latency\": \
     %.2f, \"aggregate_read_qps\": %.1f, \"failover_first_write_ms\": \
     %.1f}\n\
     }\n"
    async.writes_per_sec sync.writes_per_sec
    (sync.mean_us /. async.mean_us)
    aggregate_qps (first_write *. 1e3);
  close_out oc;
  Printf.printf "wrote %s\n" !out
