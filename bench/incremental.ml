(* Incremental-maintenance benchmark: the session cache under a mixed
   read/write workload, delta eviction (PR 10) against the
   flush-on-write wholesale baseline, on a primary daemon and on a
   replica applying the shipped log.  Emits BENCH_PR10.json.  The
   wholesale arms run the same session and flush its cache with
   [Kb.Session.invalidate] after every write: on the primary after each
   acknowledged write, on the replica after each applied batch.

   The workload is the one delta eviction exists for: four reader
   clients hammer one viewpoint's memoized queries while a writer
   sustains mutations for the whole read window — three quarters to an
   object outside the readers' isa-cone (the cache should be carried
   untouched), one quarter to the read object itself (the least model
   should be repaired in place, not recomputed).  All mutated rules
   keep the Herbrand universe fixed, so repair never falls back; a
   fresh constant would be counted in inc_fallbacks, and the run
   reports that counter so a regression is visible.

   Flags: --quick (few requests; used by the cram well-formedness
   test), --out FILE (default BENCH_PR10.json), --min-hit-rate R (fail
   unless both delta runs reach R and the primary delta run beats its
   wholesale baseline — the `make bench-incremental` floor). *)

open Harness

let kb_src =
  "component top { fly(X) :- bird(X). bird(b0). bird(b1). bird(b2). \
   nests(X) :- bird(X), not -fly(X). } \
   component bot extends top { -fly(b0). } \
   component side { mark. }"

(* The flush-on-write hook of a run: nothing for the delta arms, a
   wholesale [invalidate] of [session] for the baseline. *)
let flush_after_write ~eviction session =
  if eviction = "delta" then ignore
  else fun () -> Kb.Session.invalidate session

(* The read mix: three least-model queries (one shared cache entry the
   writer keeps repairing) and a model enumeration (evicted by every
   in-cone write, carried across every out-of-cone one). *)
let mix =
  [| {|{"op":"query","obj":"bot","lit":"fly(b1)"}|};
     {|{"op":"models","obj":"bot","kind":"stable"}|};
     {|{"op":"query","obj":"bot","lit":"nests(b1)"}|};
     {|{"op":"query","obj":"bot","lit":"fly(b0)"}|}
  |]

(* One writer step: add a rule, then remove it again next time around —
   the KB stays bounded however long the read window is.  Every fourth
   target is the read object itself (universe-preserving propositional
   rules, so the repair path runs rather than the fallback). *)
let write_ops i =
  let j = i / 2 in
  let k = j mod 8 in
  let obj, r =
    if j mod 4 = 3 then ("bot", Printf.sprintf "flag%d." k)
    else ("side", Printf.sprintf "s%d :- mark." k)
  in
  let payload op =
    W.to_string
      (W.Obj
         [ ("op", W.String op); ("obj", W.String obj); ("rule", W.String r) ])
  in
  if i mod 2 = 0 then payload "add_rule" else payload "remove_rule"

type run = {
  target : string;  (* "primary" | "replica" *)
  eviction : string;  (* "delta" | "wholesale" *)
  requests : int;
  writes : int;
  elapsed_ns : int;
  qps : float;
  hits : int;
  misses : int;
  hit_rate : float;
  repairs : int;
  fallbacks : int;
  kept : int;
}

(* Readers against [read_addr], a writer sustaining mutations against
   [write_addr] (calling [after_write] after each acknowledged one) until
   the readers drain; stats are collected from the daemon the readers
   hit. *)
let measure ~after_write ~target ~eviction ~read_addr ~write_addr
    ~stats_daemon ~per_client =
  let clients = 4 in
  let stop = Atomic.make false in
  let writes = Atomic.make 0 in
  let writer =
    Thread.create
      (fun () ->
        let c = connect write_addr in
        let i = ref 0 in
        while not (Atomic.get stop) do
          ignore (expect_ok c (write_ops !i));
          after_write ();
          incr i;
          Atomic.incr writes
        done;
        Server.Client.close c)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let readers =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            let c = connect read_addr in
            for i = 0 to per_client - 1 do
              ignore (roundtrip c mix.((ci + i) mod Array.length mix))
            done;
            Server.Client.close c)
          ())
  in
  List.iter Thread.join readers;
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  Thread.join writer;
  let c = Kb.Session.counters (Server.Engine.session stats_daemon) in
  let m name =
    match
      List.assoc_opt name
        (Governor.Metrics.snapshot (Server.Engine.metrics stats_daemon))
    with
    | Some n -> n
    | None -> die "no %s metric" name
  in
  let requests = clients * per_client in
  { target;
    eviction;
    requests;
    writes = Atomic.get writes;
    elapsed_ns = int_of_float (elapsed *. 1e9);
    qps = float_of_int requests /. elapsed;
    hits = c.Kb.Session.hits;
    misses = c.Kb.Session.misses;
    hit_rate =
      float_of_int c.Kb.Session.hits
      /. float_of_int (max 1 (c.Kb.Session.hits + c.Kb.Session.misses));
    repairs = m "inc_repairs";
    fallbacks = m "inc_fallbacks";
    kept = m "cache_kept"
  }

let load_kb address =
  let c = connect address in
  ignore
    (expect_ok c
       (W.to_string
          (W.Obj [ ("op", W.String "load"); ("src", W.String kb_src) ])));
  Server.Client.close c

(* ------------------------------------------------------------------ *)
(* Primary leg: one daemon, readers and writer on the same socket      *)
(* ------------------------------------------------------------------ *)

let primary_run ~eviction ~per_client =
  let d = daemon () in
  let t = start d in
  let engine = Server.Daemon.engine d in
  let addr = Server.Daemon.address d in
  load_kb addr;
  let r =
    measure
      ~after_write:
        (flush_after_write ~eviction (Server.Engine.session engine))
      ~target:"primary" ~eviction ~read_addr:addr ~write_addr:addr
      ~stats_daemon:engine ~per_client
  in
  stop d t;
  r

(* ------------------------------------------------------------------ *)
(* Replica leg: writer on the primary, readers on a replica applying   *)
(* the shipped log through the same delta path (apply/apply_batch)     *)
(* ------------------------------------------------------------------ *)

let replica_run ~eviction ~per_client =
  let pd = fresh_dir () and rd = fresh_dir () in
  let primary =
    daemon ~persist:(persist_config pd) ~replicate_on:(`Tcp ("127.0.0.1", 0))
      ()
  in
  let pt = start primary in
  let rep_addr =
    match Server.Daemon.replication_address primary with
    | Some (`Tcp _ as a) -> a
    | _ -> die "primary has no replication listener"
  in
  load_kb (Server.Daemon.address primary);
  let replica = daemon ~persist:(persist_config rd) () in
  let rt = start replica in
  let engine = Server.Daemon.engine replica in
  let after_apply =
    flush_after_write ~eviction (Server.Engine.session engine)
  in
  let link =
    Server.Link.create ~engine
      ~persist:(Option.get (Server.Daemon.persist_handle replica))
      (Server.Link.default_config rep_addr)
  in
  catch_up link;
  (* pump the link for the whole read window so every primary write is
     applied on the replica while the readers run *)
  let stop_pump = Atomic.make false in
  let pump =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_pump) do
          (match Server.Link.step link with
          | `Applied _ -> after_apply ()
          | `Ready -> ()
          | `Idle -> Thread.yield ()
          | `Retry _ -> Thread.yield ()
          | `Fatal m -> die "replication halted: %s" m
          | `Stopped -> ());
          ()
        done)
      ()
  in
  let r =
    measure ~after_write:ignore ~target:"replica" ~eviction
      ~read_addr:(Server.Daemon.address replica)
      ~write_addr:(Server.Daemon.address primary)
      ~stats_daemon:engine ~per_client
  in
  Atomic.set stop_pump true;
  Thread.join pump;
  Server.Link.stop link;
  stop replica rt;
  stop primary pt;
  rm_rf pd;
  rm_rf rd;
  r

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let quick = ref false in
  let out = ref "BENCH_PR10.json" in
  let min_hit_rate = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | "--min-hit-rate" :: r :: rest ->
      min_hit_rate := float_of_string_opt r;
      parse rest
    | arg :: _ ->
      Printf.eprintf "incremental: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let per_client = if !quick then 50 else 400 in
  let runs =
    [ primary_run ~eviction:"delta" ~per_client;
      primary_run ~eviction:"wholesale" ~per_client;
      replica_run ~eviction:"delta" ~per_client;
      replica_run ~eviction:"wholesale" ~per_client
    ]
  in
  let find target eviction =
    List.find (fun r -> r.target = target && r.eviction = eviction) runs
  in
  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"PR10 incremental maintenance\",\n  \"mode\": \"%s\",\n"
    (if !quick then "quick" else "full");
  p "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"target\": \"%s\", \"eviction\": \"%s\", \"requests\": %d, \
         \"writes\": %d, \"elapsed_ns\": %d, \"reads_per_sec\": %.1f, \
         \"cache_hits\": %d, \"cache_misses\": %d, \"cache_hit_rate\": \
         %.4f, \"inc_repairs\": %d, \"inc_fallbacks\": %d, \"cache_kept\": \
         %d}%s\n"
        r.target r.eviction r.requests r.writes r.elapsed_ns r.qps r.hits
        r.misses r.hit_rate r.repairs r.fallbacks r.kept
        (if i = List.length runs - 1 then "" else ","))
    runs;
  let pd = find "primary" "delta"
  and pw = find "primary" "wholesale"
  and rd = find "replica" "delta"
  and rw = find "replica" "wholesale" in
  p
    "  ],\n\
    \  \"summary\": {\"primary_delta_hit_rate\": %.4f, \
     \"primary_wholesale_hit_rate\": %.4f, \"replica_delta_hit_rate\": \
     %.4f, \"replica_wholesale_hit_rate\": %.4f, \
     \"primary_hit_rate_advantage\": %.4f}\n\
     }\n"
    pd.hit_rate pw.hit_rate rd.hit_rate rw.hit_rate
    (pd.hit_rate -. pw.hit_rate);
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  match !min_hit_rate with
  | None -> ()
  | Some floor ->
    if pd.hit_rate < floor then
      die "primary delta hit rate %.4f below the %.2f floor" pd.hit_rate
        floor;
    if rd.hit_rate < floor then
      die "replica delta hit rate %.4f below the %.2f floor" rd.hit_rate
        floor;
    if pd.hit_rate <= pw.hit_rate then
      die "delta hit rate %.4f does not beat the wholesale baseline %.4f"
        pd.hit_rate pw.hit_rate;
    Printf.printf
      "hit-rate floor ok: delta %.4f vs wholesale %.4f (floor %.2f)\n"
      pd.hit_rate pw.hit_rate floor
