(* Replication benchmark: a primary daemon and a replica in process,
   the replica's link stepped over its engine and data directory.  Emits
   BENCH_PR5.json — log-shipping throughput (mutations per second
   applied on the replica) for a cold catch-up and for a burst arriving
   while in sync, and read throughput served from the replica against
   the same workload served from the primary.

   The link is stepped directly rather than through its background
   thread, so the ship numbers measure the pull/apply path without
   poll-interval sleeps.

   Flags: --quick (small counts; used by the cram well-formedness
   test), --out FILE (default BENCH_PR5.json). *)

open Harness
module P = Persist
module Store = Kb.Store

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

(* apply a mutation on the primary the way a worker would: under the
   engine lock, through the session, so it is logged and shippable *)
let mutate d m =
  let engine = Server.Daemon.engine d in
  Server.Engine.exclusively engine (fun () ->
      Kb.Session.apply (Server.Engine.session engine) m)

(* a step-driven link over a replica daemon's engine and data directory *)
let link_of ~primary d =
  let persist =
    match Server.Daemon.persist_handle d with
    | Some p -> p
    | None -> die "replica daemon has no data directory"
  in
  Server.Link.create ~engine:(Server.Daemon.engine d) ~persist
    (Server.Link.default_config primary)

(* ------------------------------------------------------------------ *)
(* Shipping throughput                                                 *)
(* ------------------------------------------------------------------ *)

type ship_run = {
  phase : string;
  mutations : int;
  elapsed_ns : int;
  per_sec : float;
}

type read_run = {
  target : string;
  clients : int;
  requests : int;
  elapsed_ns : int;
  qps : float;
}

(* the read mix: repeated queries, answerable from the session cache
   after the first computation — the workload a read replica exists to
   offload *)
let mix =
  [| {|{"op":"query","obj":"facts","lit":"q(1)"}|};
     {|{"op":"query","obj":"facts","lit":"p(1)"}|};
     {|{"op":"query","obj":"facts","lit":"q(2)"}|};
     {|{"op":"query","obj":"facts","lit":"p(0)"}|}
  |]

let read_qps ~target ~clients ~per_client address =
  let elapsed =
    time (fun () ->
        let threads =
          List.init clients (fun ci ->
              Thread.create
                (fun () ->
                  let c = connect address in
                  for i = 0 to per_client - 1 do
                    ignore (roundtrip c mix.((ci + i) mod Array.length mix))
                  done;
                  Server.Client.close c)
                ())
        in
        List.iter Thread.join threads)
  in
  let requests = clients * per_client in
  { target;
    clients;
    requests;
    elapsed_ns = int_of_float (elapsed *. 1e9);
    qps = float_of_int requests /. elapsed
  }

let () =
  let quick = ref false in
  let out = ref "BENCH_PR5.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | arg :: _ ->
      Printf.eprintf "replica: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let n = if !quick then 300 else 10_000 in
  let burst = if !quick then 100 else 2_000 in
  let per_client = if !quick then 25 else 300 in
  let clients = 4 in

  let pd = fresh_dir () and rd = fresh_dir () in
  let primary =
    daemon ~persist:(persist_config pd) ~replicate_on:(`Tcp ("127.0.0.1", 0))
      ()
  in
  let primary_thread = start primary in
  let rep_addr =
    match Server.Daemon.replication_address primary with
    | Some a -> a
    | None -> die "primary has no replication listener"
  in
  mutate primary define;
  for i = 1 to n do
    mutate primary (mutation i)
  done;

  let replica = daemon ~persist:(persist_config rd) () in
  let replica_thread = start replica in
  let link = link_of ~primary:rep_addr replica in

  (* 1. cold catch-up: the replica pulls the primary's whole history *)
  let cold = time (fun () -> catch_up link) in
  let seq = P.seq (Option.get (Server.Daemon.persist_handle replica)) in
  if seq <> n + 1 then die "cold catch-up applied %d of %d" seq (n + 1);

  (* 2. a burst lands while the replica is in sync *)
  for i = n + 1 to n + burst do
    mutate primary (mutation i)
  done;
  let live = time (fun () -> catch_up link) in

  let ships =
    [ { phase = "cold-catch-up";
        mutations = n + 1;
        elapsed_ns = int_of_float (cold *. 1e9);
        per_sec = float_of_int (n + 1) /. cold
      };
      { phase = "burst-catch-up";
        mutations = burst;
        elapsed_ns = int_of_float (live *. 1e9);
        per_sec = float_of_int burst /. live
      }
    ]
  in

  (* 3. the same read workload against each end *)
  let reads =
    [ read_qps ~target:"primary" ~clients ~per_client
        (Server.Daemon.address primary);
      read_qps ~target:"replica" ~clients ~per_client
        (Server.Daemon.address replica)
    ]
  in

  Server.Link.stop link;
  stop replica replica_thread;
  stop primary primary_thread;
  rm_rf pd;
  rm_rf rd;

  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"PR5 replication\",\n  \"mode\": \"%s\",\n"
    (if !quick then "quick" else "full");
  p "  \"ship\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"phase\": \"%s\", \"mutations\": %d, \"elapsed_ns\": %d, \
         \"mutations_per_sec\": %.1f}%s\n"
        r.phase r.mutations r.elapsed_ns r.per_sec
        (if i = List.length ships - 1 then "" else ","))
    ships;
  p "  ],\n  \"reads\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"target\": \"%s\", \"clients\": %d, \"requests\": %d, \
         \"elapsed_ns\": %d, \"requests_per_sec\": %.1f}%s\n"
        r.target r.clients r.requests r.elapsed_ns r.qps
        (if i = List.length reads - 1 then "" else ","))
    reads;
  let ship_best = List.fold_left (fun acc r -> max acc r.per_sec) 0. ships in
  let qps_of t = (List.find (fun r -> r.target = t) reads).qps in
  p
    "  ],\n\
    \  \"summary\": {\"ship_mutations_per_sec\": %.1f, \
     \"primary_read_qps\": %.1f, \"replica_read_qps\": %.1f, \
     \"replica_vs_primary_reads\": %.2f}\n\
     }\n"
    ship_best (qps_of "primary") (qps_of "replica")
    (qps_of "replica" /. qps_of "primary");
  close_out oc;
  Printf.printf "wrote %s\n" !out
