(* Persistence benchmark: what durability costs on the write path and
   what recovery costs at boot.  Emits BENCH_PR4.json — mutations per
   second for the same apply loop in memory, write-ahead-logged without
   fsync, write-ahead-logged with fsync, and fsynced through the group
   committer with concurrent writers sharing the flushes (the overhead
   columns are the ratios against in-memory), plus recovery wall-clock
   against log length, with and without a snapshot bounding the
   replay.

   Flags: --quick (small counts; used by the cram well-formedness
   test), --out FILE (default BENCH_PR4.json). *)

open Harness
module P = Persist
module Store = Kb.Store

type write_run = {
  mode : string;
  mutations : int;
  elapsed_ns : int;
  per_sec : float;
  overhead : float;  (* vs the in-memory run; 1.0 for in-memory itself *)
}

let write_memory n =
  let store = Store.create () in
  Store.apply store define;
  time (fun () ->
      for i = 1 to n do
        Store.apply store (mutation i)
      done)

let write_wal ~fsync n =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (persist_config ~fsync dir) in
  let m0 = define in
  Store.apply store m0;
  P.append p m0;
  let elapsed =
    time (fun () ->
        for i = 1 to n do
          let m = mutation i in
          Store.apply store m;
          P.append p m
        done)
  in
  if P.seq p <> n + 1 then die "wal run logged %d of %d" (P.seq p) (n + 1);
  P.close p;
  rm_rf dir;
  elapsed

(* the group-commit shape: [threads] writers each appending and then
   waiting for durability, sharing fsyncs through the committer thread.
   Store/append stay serialized under a mutex (the engine lock's role);
   only the durability waits overlap. *)
let write_group ~threads n =
  let dir = fresh_dir () in
  let p, store, _ =
    P.open_dir (persist_config ~fsync:true ~group_commit_ms:2 dir)
  in
  let lock = Mutex.create () in
  let m0 = define in
  Store.apply store m0;
  P.append p m0;
  P.wait_durable p;
  let per_thread = n / threads in
  let writer t () =
    for i = 1 to per_thread do
      let m = mutation ((t * per_thread) + i) in
      Mutex.lock lock;
      Store.apply store m;
      P.append p m;
      Mutex.unlock lock;
      P.wait_durable p
    done
  in
  let elapsed =
    time (fun () ->
        let ts = List.init threads (fun t -> Thread.create (writer t) ()) in
        List.iter Thread.join ts)
  in
  if P.seq p <> (threads * per_thread) + 1 then
    die "group run logged %d of %d" (P.seq p) ((threads * per_thread) + 1);
  P.close p;
  rm_rf dir;
  (threads * per_thread, elapsed)

let write_run ~mode ~baseline n elapsed =
  { mode;
    mutations = n;
    elapsed_ns = int_of_float (elapsed *. 1e9);
    per_sec = float_of_int n /. elapsed;
    overhead = elapsed /. float_of_int n /. baseline
  }

type recovery_run = {
  records : int;  (* replayed at boot *)
  snapshotted : bool;
  elapsed_ns : int;
  per_sec : float;
}

(* build a directory holding [n] logged mutations (after an optional
   snapshot covering all of them plus [tail] more records), then time a
   cold open_dir *)
let recovery ~snapshotted n =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (persist_config dir) in
  let log m =
    Store.apply store m;
    P.append p m
  in
  log define;
  for i = 1 to n - 1 do
    log (mutation i)
  done;
  if snapshotted then begin
    ignore (P.snapshot p : int);
    (* the replay cost measured is the [n]-record tail after the
       snapshot, not the snapshot decode *)
    for i = n to (2 * n) - 1 do
      log (mutation i)
    done
  end;
  P.close p;
  let replayed = ref 0 in
  let elapsed =
    time (fun () ->
        let p, _, r = P.open_dir (persist_config dir) in
        replayed := r.P.replayed;
        P.close p)
  in
  rm_rf dir;
  if !replayed <> n then die "recovery replayed %d of %d" !replayed n;
  { records = n;
    snapshotted;
    elapsed_ns = int_of_float (elapsed *. 1e9);
    per_sec = float_of_int n /. elapsed
  }

let () =
  let quick = ref false in
  let out = ref "BENCH_PR4.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | arg :: _ ->
      Printf.eprintf "persist: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let n = if !quick then 200 else 5000 in
  let n_fsync = if !quick then 50 else 500 in
  let mem = write_memory n in
  let baseline = mem /. float_of_int n in
  let group_n, group_elapsed = write_group ~threads:16 (4 * n_fsync) in
  let writes =
    [ write_run ~mode:"in-memory" ~baseline n mem;
      write_run ~mode:"wal" ~baseline n (write_wal ~fsync:false n);
      write_run ~mode:"wal+fsync" ~baseline n_fsync
        (write_wal ~fsync:true n_fsync);
      write_run ~mode:"wal+group-commit" ~baseline group_n group_elapsed
    ]
  in
  let recoveries =
    [ recovery ~snapshotted:false (n / 4);
      recovery ~snapshotted:false n;
      recovery ~snapshotted:true (n / 4)
    ]
  in
  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"PR4 persistence\",\n  \"mode\": \"%s\",\n"
    (if !quick then "quick" else "full");
  p "  \"write\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"mode\": \"%s\", \"mutations\": %d, \"elapsed_ns\": %d, \
         \"mutations_per_sec\": %.1f, \"overhead_vs_memory\": %.2f}%s\n"
        r.mode r.mutations r.elapsed_ns r.per_sec r.overhead
        (if i = List.length writes - 1 then "" else ","))
    writes;
  p "  ],\n  \"recovery\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"replayed\": %d, \"snapshotted\": %b, \"elapsed_ns\": %d, \
         \"records_per_sec\": %.1f}%s\n"
        r.records r.snapshotted r.elapsed_ns r.per_sec
        (if i = List.length recoveries - 1 then "" else ","))
    recoveries;
  let find m = List.find (fun r -> r.mode = m) writes in
  let replay_best =
    List.fold_left (fun acc r -> max acc r.per_sec) 0. recoveries
  in
  p
    "  ],\n\
    \  \"summary\": {\"wal_overhead\": %.2f, \"fsync_overhead\": %.2f, \
     \"group_commit_overhead\": %.2f, \"group_commit_speedup\": %.2f, \
     \"replay_records_per_sec\": %.1f}\n\
     }\n"
    (find "wal").overhead (find "wal+fsync").overhead
    (find "wal+group-commit").overhead
    ((find "wal+fsync").overhead /. (find "wal+group-commit").overhead)
    replay_best;
  close_out oc;
  Printf.printf "wrote %s\n" !out
