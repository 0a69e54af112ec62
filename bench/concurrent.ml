(* Concurrent-serving benchmark: what the parallel rework buys under
   contention.  Emits BENCH_PR7.json with two experiments:

   - {b read scaling}: a mixed workload — reader clients hammering
     cached queries while writer clients append facts to a durable KB
     with a group-commit window.  Every write parks its worker in
     [wait_durable] for up to the window, so with one worker the reads
     queue behind stalled writes; with four, the lock-free reads flow
     around them.  The ratio of read throughput at 4 workers vs 1 is
     the headline number (the acceptance floor is 2.5x).
   - {b many clients}: 64 concurrent clients, each pushing batched
     frames of mixed reads and writes; the run must complete with zero
     error responses.

   Flags: --quick (small counts; used by the cram well-formedness
   test), --out FILE (default BENCH_PR7.json). *)

open Harness

let kb_src =
  "component kb { p(1). p(2). q(X) :- p(X). }"

let read_line_ = {|{"op":"query","obj":"kb","lit":"q(1)"}|}

let with_daemon ~workers ~persist f =
  let dir = if persist then Some (fresh_dir ()) else None in
  let d =
    daemon ~workers
      ?persist:
        (Option.map (persist_config ~fsync:true ~group_commit_ms:5) dir)
      ()
  in
  let server = start d in
  Fun.protect
    ~finally:(fun () ->
      stop d server;
      Option.iter rm_rf dir)
    (fun () -> f (Server.Daemon.address d))

(* --------------------------------------------------------------- *)
(* Experiment 1: read throughput with writers stalling in the      *)
(* group-commit window                                             *)
(* --------------------------------------------------------------- *)

type scaling_run = {
  workers : int;
  readers : int;
  writers : int;
  reads : int;
  writes : int;
  elapsed_ns : int;
  read_qps : float;
}

let measure_mixed ~workers ~readers ~writers ~reads_per_reader =
  with_daemon ~workers ~persist:true @@ fun address ->
  let setup = connect address in
  ignore
    (expect_ok setup
       (W.to_string (W.Obj [ ("op", W.String "load"); ("src", W.String kb_src) ])));
  ignore (expect_ok setup read_line_) (* warm the cache *);
  Server.Client.close setup;
  (* connect everyone, then start the clock: on one core the connect
     and thread-spawn cost would otherwise dominate the timed window *)
  let gate = Mutex.create () and turn = Condition.create () in
  let ready = ref 0 and go = ref false in
  let barrier total =
    Mutex.lock gate;
    incr ready;
    if !ready = total then Condition.broadcast turn;
    while not !go do Condition.wait turn gate done;
    Mutex.unlock gate
  in
  let total_threads = readers + writers in
  let stop_writers = ref false in
  let writes_done = Array.make writers 0 in
  let writer_threads =
    List.init writers (fun wi ->
        Thread.create
          (fun () ->
            let c = connect address in
            barrier total_threads;
            let k = ref 0 in
            while not !stop_writers do
              incr k;
              ignore
                (expect_ok c
                   (Printf.sprintf
                      {|{"op":"add_rule","obj":"kb","rule":"w%d(%d)."}|} wi !k))
            done;
            writes_done.(wi) <- !k;
            Server.Client.close c)
          ())
  in
  let reader_threads =
    List.init readers (fun _ ->
        Thread.create
          (fun () ->
            let c = connect address in
            barrier total_threads;
            for _ = 1 to reads_per_reader do
              ignore (expect_ok c read_line_)
            done;
            Server.Client.close c)
          ())
  in
  Mutex.lock gate;
  while !ready < total_threads do Condition.wait turn gate done;
  let t0 = Unix.gettimeofday () in
  go := true;
  Condition.broadcast turn;
  Mutex.unlock gate;
  List.iter Thread.join reader_threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  stop_writers := true;
  List.iter Thread.join writer_threads;
  let reads = readers * reads_per_reader in
  { workers;
    readers;
    writers;
    reads;
    writes = Array.fold_left ( + ) 0 writes_done;
    elapsed_ns = int_of_float (elapsed *. 1e9);
    read_qps = float_of_int reads /. elapsed
  }

(* --------------------------------------------------------------- *)
(* Experiment 2: 64 clients, batched mixed frames, zero errors     *)
(* --------------------------------------------------------------- *)

type crowd_run = {
  clients : int;
  frames : int;
  requests : int;
  errors : int;
  crowd_elapsed_ns : int;
}

let batch_frame ~client ~frame ~per_batch =
  let items =
    List.init per_batch (fun i ->
        if i mod 8 = 7 then
          Printf.sprintf {|{"op":"add_rule","obj":"kb","rule":"c%d_%d(%d)."}|}
            client frame i
        else read_line_)
  in
  Printf.sprintf {|{"op":"batch","requests":[%s]}|} (String.concat "," items)

let measure_crowd ~clients ~frames_per_client ~per_batch =
  with_daemon ~workers:4 ~persist:false @@ fun address ->
  let setup = connect address in
  ignore
    (expect_ok setup
       (W.to_string (W.Obj [ ("op", W.String "load"); ("src", W.String kb_src) ])));
  Server.Client.close setup;
  let gate = Mutex.create () and turn = Condition.create () in
  let ready = ref 0 and go = ref false in
  let errors = Array.make clients 0 in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            let c = connect address in
            Mutex.lock gate;
            incr ready;
            if !ready = clients then Condition.broadcast turn;
            while not !go do Condition.wait turn gate done;
            Mutex.unlock gate;
            for frame = 1 to frames_per_client do
              let envelope =
                expect_ok c (batch_frame ~client:ci ~frame ~per_batch)
              in
              match W.member "responses" envelope with
              | Some (W.List rs) ->
                List.iter
                  (fun r ->
                    match W.member "status" r with
                    | Some (W.String "ok") -> ()
                    | _ -> errors.(ci) <- errors.(ci) + 1)
                  rs
              | _ -> errors.(ci) <- errors.(ci) + per_batch
            done;
            Server.Client.close c)
          ())
  in
  Mutex.lock gate;
  while !ready < clients do Condition.wait turn gate done;
  let t0 = Unix.gettimeofday () in
  go := true;
  Condition.broadcast turn;
  Mutex.unlock gate;
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  { clients;
    frames = clients * frames_per_client;
    requests = clients * frames_per_client * per_batch;
    errors = Array.fold_left ( + ) 0 errors;
    crowd_elapsed_ns = int_of_float (elapsed *. 1e9)
  }

(* --------------------------------------------------------------- *)

let () =
  let quick = ref false in
  let out = ref "BENCH_PR7.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | arg :: _ ->
      Printf.eprintf "concurrent: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let reads_per_reader = if !quick then 150 else 1500 in
  let runs =
    [ measure_mixed ~workers:1 ~readers:4 ~writers:2 ~reads_per_reader;
      measure_mixed ~workers:4 ~readers:4 ~writers:2 ~reads_per_reader
    ]
  in
  let crowd =
    if !quick then measure_crowd ~clients:16 ~frames_per_client:2 ~per_batch:16
    else measure_crowd ~clients:64 ~frames_per_client:4 ~per_batch:32
  in
  let qps workers =
    match List.find_opt (fun r -> r.workers = workers) runs with
    | Some r -> r.read_qps
    | None -> die "missing run for %d workers" workers
  in
  let scaling = qps 4 /. qps 1 in
  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"PR7 concurrent serving\",\n  \"mode\": \"%s\",\n"
    (if !quick then "quick" else "full");
  p "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"workers\": %d, \"readers\": %d, \"writers\": %d, \"reads\": \
         %d, \"writes\": %d, \"elapsed_ns\": %d, \"read_qps\": %.1f}%s\n"
        r.workers r.readers r.writers r.reads r.writes r.elapsed_ns r.read_qps
        (if i = List.length runs - 1 then "" else ","))
    runs;
  p "  ],\n";
  p
    "  \"many_clients\": {\"clients\": %d, \"frames\": %d, \"requests\": %d, \
     \"errors\": %d, \"elapsed_ns\": %d},\n"
    crowd.clients crowd.frames crowd.requests crowd.errors
    crowd.crowd_elapsed_ns;
  p
    "  \"summary\": {\"read_qps_1_worker\": %.1f, \"read_qps_4_workers\": \
     %.1f, \"read_scaling_4v1\": %.2f, \"many_clients_errors\": %d}\n}\n"
    (qps 1) (qps 4) scaling crowd.errors;
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  if crowd.errors > 0 then die "%d errors in the many-clients run" crowd.errors
