(* Serving benchmark: the socket server end to end, in process.  Emits
   BENCH_PR3.json — requests per second and session-cache hit rate for
   the repeated-query workload, at one worker and at four (systhreads
   interleave rather than parallelise, so the worker axis measures
   dispatch overhead, not speedup).

   Flags: --quick (few requests; used by the cram well-formedness
   test), --smoke (boot, one round-trip, clean shutdown, then a primary
   and a replica built from their daemon config ship one write and
   drain — the `make serve-smoke` deadline check), --out FILE (default
   BENCH_PR3.json). *)

open Harness

let kb_src =
  "component top { fly(X) :- bird(X). bird(tweety). bird(penguin). \
   bird(sam). nests(X) :- bird(X), not -fly(X). } \
   component bot extends top { -fly(penguin). }"

let with_daemon ~workers f =
  let d = daemon ~workers () in
  let server = start d in
  let r = f (Server.Daemon.address d) in
  stop d server;
  r

(* The repeated-query mix one client sends: after the first computation
   every request is answerable from the session cache. *)
let mix =
  [| {|{"op":"models","obj":"bot","kind":"stable"}|};
     {|{"op":"query","obj":"bot","lit":"fly(penguin)"}|};
     {|{"op":"models","obj":"bot","kind":"assumption-free"}|};
     {|{"op":"query","obj":"bot","lit":"nests(tweety)"}|}
  |]

type run = {
  workers : int;
  clients : int;
  requests : int;  (* total across clients *)
  elapsed_ns : int;
  rps : float;
  hits : int;
  misses : int;
  hit_rate : float;
}

let measure ~workers ~clients ~per_client =
  with_daemon ~workers @@ fun address ->
  let setup = connect address in
  ignore
    (expect_ok setup
       (W.to_string
          (W.Obj [ ("op", W.String "load"); ("src", W.String kb_src) ])));
  Server.Client.close setup;
  let t0 = Unix.gettimeofday () in
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
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  let c = connect address in
  let stats = expect_ok c {|{"op":"stats"}|} in
  Server.Client.close c;
  let counter name =
    match Option.bind (W.member "cache" stats) (W.member name) with
    | Some (W.Int n) -> n
    | _ -> die "stats response lacks cache.%s" name
  in
  let hits = counter "hits" and misses = counter "misses" in
  let requests = clients * per_client in
  { workers;
    clients;
    requests;
    elapsed_ns = int_of_float (elapsed *. 1e9);
    rps = float_of_int requests /. elapsed;
    hits;
    misses;
    hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses))
  }

let smoke () =
  with_daemon ~workers:1 @@ fun address ->
  let c = connect address in
  ignore
    (expect_ok c
       (W.to_string
          (W.Obj [ ("op", W.String "load"); ("src", W.String kb_src) ])));
  let j = expect_ok c {|{"op":"query","obj":"bot","lit":"fly(tweety)"}|} in
  (match W.member "value" j with
  | Some (W.String "true") -> ()
  | _ -> die "bad query answer: %s" (W.to_string j));
  ignore (expect_ok c {|{"op":"shutdown"}|});
  Server.Client.close c

(* A primary with a replication listener and a replica built from
   [Daemon.config.replica_of], as `olp serve --replica-of` builds it:
   one write ships, then both drain. *)
let smoke_replica () =
  let pd = fresh_dir () and rd = fresh_dir () in
  let p =
    daemon ~workers:1 ~persist:(persist_config pd)
      ~replicate_on:(`Tcp ("127.0.0.1", 0)) ()
  in
  let pt = start p in
  let primary = Option.get (Server.Daemon.replication_address p) in
  let r =
    daemon ~workers:1 ~persist:(persist_config rd)
      ~replica_of:(Server.Link.default_config primary) ()
  in
  let rt = start r in
  let c = connect (Server.Daemon.address p) in
  ignore
    (expect_ok c
       (W.to_string
          (W.Obj [ ("op", W.String "load"); ("src", W.String kb_src) ])));
  let rc = connect (Server.Daemon.address r) in
  let query = {|{"op":"query","obj":"bot","lit":"fly(tweety)"}|} in
  let deadline = Unix.gettimeofday () +. 4. in
  let rec shipped () =
    match W.member "value" (roundtrip rc query) with
    | Some (W.String "true") -> ()
    | _ when Unix.gettimeofday () > deadline -> die "the write never shipped"
    | _ ->
      Thread.delay 0.01;
      shipped ()
  in
  shipped ();
  List.iter
    (fun c ->
      ignore (expect_ok c {|{"op":"shutdown"}|});
      Server.Client.close c)
    [ rc; c ];
  Thread.join rt;
  Thread.join pt;
  List.iter rm_rf [ pd; rd ]

let () =
  let quick = ref false in
  let smoke_mode = ref false in
  let out = ref "BENCH_PR3.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | arg :: _ ->
      Printf.eprintf "serve: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke_mode then begin
    smoke ();
    smoke_replica ();
    print_endline "serve smoke: boot, round-trip, drain ok"
  end
  else begin
    let per_client = if !quick then 25 else 250 in
    let runs =
      [ measure ~workers:1 ~clients:4 ~per_client;
        measure ~workers:4 ~clients:4 ~per_client
      ]
    in
    let oc = open_out !out in
    let p fmt = Printf.fprintf oc fmt in
    p "{\n  \"bench\": \"PR3 serving\",\n  \"mode\": \"%s\",\n"
      (if !quick then "quick" else "full");
    p "  \"runs\": [\n";
    List.iteri
      (fun i r ->
        p
          "    {\"workers\": %d, \"clients\": %d, \"requests\": %d, \
           \"elapsed_ns\": %d, \"requests_per_sec\": %.1f, \"cache_hits\": \
           %d, \"cache_misses\": %d, \"cache_hit_rate\": %.4f}%s\n"
          r.workers r.clients r.requests r.elapsed_ns r.rps r.hits r.misses
          r.hit_rate
          (if i = List.length runs - 1 then "" else ","))
      runs;
    let best = List.fold_left (fun acc r -> max acc r.rps) 0. runs in
    let hit_rate = (List.hd runs).hit_rate in
    p
      "  ],\n\
      \  \"summary\": {\"best_requests_per_sec\": %.1f, \
       \"cache_hit_rate\": %.4f}\n\
       }\n"
      best hit_rate;
    close_out oc;
    Printf.printf "wrote %s\n" !out
  end
