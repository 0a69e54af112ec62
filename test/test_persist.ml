(* The durable record codec and data-directory lifecycle (Persist): the
   CRC-32 check vector, mutation and snapshot round-trips, the corruption
   fuzz (random bytes and bit-flipped frames come back as typed results,
   never as an escaping exception), torn-tail WAL reads, recovery
   chaining across segments and corrupt snapshots, and the differential
   property — replaying a WAL reproduces the in-memory store exactly.

   Like test_proto.ml, fuzz inputs come from a self-contained LCG so runs
   are reproducible; FUZZ_ITERS scales the input count (raised by
   `make fuzz`). *)

module P = Persist
module R = Persist.Record
module Wal = Persist.Wal
module Store = Kb.Store

let iters =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

let state = ref 0x6C078965
let rand bound =
  state := (!state * 1664525) + 1013904223;
  (!state lsr 9) mod bound

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "olp-persist-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    d

(* Canonical printable form of a store's full state; two stores are
   considered equal when these agree (rules compare by surface syntax,
   which the printers guarantee re-parses to an equal rule). *)
let repr store =
  let d = Store.dump store in
  let rules rs = String.concat "; " (List.map Logic.Rule.to_string rs) in
  String.concat "\n"
    (List.map
       (fun (name, parents, rs) ->
         Printf.sprintf "%s isa [%s] {%s}" name
           (String.concat "," parents)
           (rules rs))
       d.Store.dump_objs
    @ List.map (fun (a, b) -> a ^ " latest " ^ b) d.Store.dump_latest
    @ List.map (fun (a, c) -> Printf.sprintf "%s count %d" a c)
        d.Store.dump_counts
    @ List.map (fun (a, b) -> Printf.sprintf "prefer %s > %s" a b)
        d.Store.dump_prefs)

let config ?(fsync = false) ?(snapshot_every = 0) dir =
  { P.dir; fsync; snapshot_every; group_commit_ms = 0 }

(* ------------------------------------------------------------------ *)
(* The codec                                                           *)
(* ------------------------------------------------------------------ *)

let test_crc () =
  (* the standard CRC-32/ISO-HDLC check value *)
  Alcotest.(check int) "check vector" 0xCBF43926 (P.Crc32.string "123456789");
  Alcotest.(check int) "empty string" 0 (P.Crc32.string "");
  Alcotest.(check int) "sub agrees with string" 0xCBF43926
    (P.Crc32.sub "xx123456789yy" ~pos:2 ~len:9)

let sample_mutations : Store.mutation list =
  [ Store.Define
      { name = "bird";
        isa = [];
        rules = Helpers.rules "fly(X) :- bird(X). bird(tweety)."
      };
    Store.Define
      { name = "penguin";
        isa = [ "bird" ];
        rules = [ Helpers.rule "-fly(penguin)." ]
      };
    Store.Add_rule { obj = "bird"; rule = Helpers.rule "bird(sparrow)." };
    Store.Remove_rule { obj = "bird"; rule = Helpers.rule "bird(sparrow)." };
    Store.New_version { name = "penguin"; rules = None };
    Store.New_version
      { name = "bird"; rules = Some (Helpers.rules "heavy(ostrich).") };
    Store.Load { src = "component extra { t(1). u(X) :- t(X). }" };
    Store.Set_preference { rule = "exc"; over = "dflt" };
    Store.Set_preference { rule = "dflt"; over = "weak" };
    Store.Clear_preference { rule = "dflt"; over = "weak" }
  ]

(* A mutation as text, for comparisons and failure messages. *)
let mutation_repr (m : Store.mutation) =
  let rule = Logic.Rule.to_string in
  let rules rs = String.concat " " (List.map rule rs) in
  match m with
  | Define { name; isa; rules = rs } ->
    Printf.sprintf "define %s isa [%s] { %s }" name (String.concat ", " isa)
      (rules rs)
  | Add_rule { obj; rule = r } -> Printf.sprintf "add_rule %s %s" obj (rule r)
  | Remove_rule { obj; rule = r } ->
    Printf.sprintf "remove_rule %s %s" obj (rule r)
  | New_version { name; rules = None } -> "new_version " ^ name
  | New_version { name; rules = Some rs } ->
    Printf.sprintf "new_version %s { %s }" name (rules rs)
  | Load { src } -> "load " ^ src
  | Set_preference { rule = r; over } ->
    Printf.sprintf "set_preference %s > %s" r over
  | Clear_preference { rule = r; over } ->
    Printf.sprintf "clear_preference %s > %s" r over

let test_mutation_roundtrip () =
  List.iter
    (fun m ->
      let e = R.encode_mutation m in
      match R.decode_mutation e with
      | Error msg -> Alcotest.failf "decode failed (%s): %s" msg (mutation_repr m)
      | Ok m' ->
        Alcotest.(check string) "mutation survives the codec"
          (mutation_repr m) (mutation_repr m');
        Alcotest.(check string) "re-encode is stable" e (R.encode_mutation m'))
    sample_mutations

let test_frame_roundtrip () =
  (* several records end to end, walked with unframe *)
  let payloads = List.map R.encode_mutation sample_mutations in
  let blob = String.concat "" (List.map R.frame payloads) in
  let rec walk pos acc =
    match R.unframe blob ~pos with
    | R.End -> List.rev acc
    | R.Frame { payload; next } -> walk next (payload :: acc)
    | R.Torn d -> Alcotest.failf "unexpected torn frame: %s" d
  in
  Alcotest.(check (list string)) "frames walk back" payloads (walk 0 [])

let random_mutation () =
  List.nth sample_mutations (rand (List.length sample_mutations))

let test_corruption_fuzz () =
  for _ = 1 to iters do
    (* arbitrary bytes must yield typed results, never an exception *)
    let junk = String.init (rand 96) (fun _ -> Char.chr (rand 256)) in
    (match R.decode_mutation junk with Ok _ | Error _ -> ());
    (match R.decode_snapshot junk with Ok _ | Error _ -> ());
    (match R.unframe junk ~pos:0 with R.Frame _ | R.End | R.Torn _ -> ());
    (match R.decode_wal_header junk with Ok _ | Error _ -> ());
    (* a single flipped bit in a valid frame must be rejected *)
    let payload = R.encode_mutation (random_mutation ()) in
    let b = Bytes.of_string (R.frame payload) in
    let i = rand (Bytes.length b) in
    Bytes.set b i
      (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl rand 8)));
    match R.unframe (Bytes.to_string b) ~pos:0 with
    | R.Torn _ -> ()
    | R.End -> Alcotest.fail "flipped frame read as clean end"
    | R.Frame { payload = p; _ } ->
      if p = payload then Alcotest.fail "bit flip went undetected"
  done

let test_snapshot_roundtrip () =
  let store = Store.create () in
  List.iter (Store.apply store) sample_mutations;
  let d = Store.dump store in
  let img = R.encode_snapshot ~seq:42 ~epoch:3 d in
  (match R.decode_snapshot img with
  | Error msg -> Alcotest.failf "snapshot decode failed: %s" msg
  | Ok (seq, epoch, d') ->
    Alcotest.(check int) "seq survives" 42 seq;
    Alcotest.(check int) "epoch survives" 3 epoch;
    Alcotest.(check string) "dump survives" (repr store)
      (repr (Store.of_dump d')));
  (* flip one payload byte: the CRC must catch it *)
  let b = Bytes.of_string img in
  let i = 16 + rand (Bytes.length b - 16) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
  match R.decode_snapshot (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted snapshot decoded"

(* ------------------------------------------------------------------ *)
(* WAL files                                                           *)
(* ------------------------------------------------------------------ *)

let test_wal_torn_tail () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal-000000000000.log" in
  let w = Wal.create ~fsync:false ~base:0 ~epoch:0 path in
  let ms = [ List.nth sample_mutations 0; List.nth sample_mutations 2;
             List.nth sample_mutations 6 ] in
  List.iter
    (fun m -> ignore (Wal.append ~fsync:false w (R.encode_mutation m) : int))
    ms;
  Wal.close w;
  (* a crash mid-append: half a frame of garbage on the end *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x40\x00\x00\x00\xde\xad";
  close_out oc;
  (match Wal.read ~path ~expect_base:0 with
  | Error msg -> Alcotest.failf "read failed: %s" msg
  | Ok rep ->
    Alcotest.(check int) "valid prefix survives" 3
      (List.length rep.Wal.mutations);
    Alcotest.(check bool) "tail reported torn" true (rep.Wal.torn <> None);
    Alcotest.(check bool) "good_end before size" true
      (rep.Wal.good_end < rep.Wal.size);
    Wal.truncate ~path rep.Wal.good_end);
  (match Wal.read ~path ~expect_base:0 with
  | Error msg -> Alcotest.failf "re-read failed: %s" msg
  | Ok rep ->
    Alcotest.(check bool) "clean after truncate" true (rep.Wal.torn = None);
    Alcotest.(check int) "records intact" 3 (List.length rep.Wal.mutations);
    Alcotest.(check int) "file ends at good_end" rep.Wal.size rep.Wal.good_end);
  (* a header whose base contradicts the segment name is an error *)
  (match Wal.read ~path ~expect_base:7 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "base mismatch accepted");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Data-directory lifecycle                                            *)
(* ------------------------------------------------------------------ *)

let apply_and_log p store m =
  Store.apply store m;
  P.append p m

let test_reopen_matches () =
  let dir = fresh_dir () in
  let p, store, r0 = P.open_dir (config dir) in
  Alcotest.(check int) "fresh dir starts empty" 0 r0.P.seq;
  List.iter (apply_and_log p store) sample_mutations;
  let before = repr store in
  P.close p;
  let p2, store2, r = P.open_dir (config dir) in
  Alcotest.(check string) "replay reproduces the store" before (repr store2);
  Alcotest.(check int) "all records replayed"
    (List.length sample_mutations) r.P.replayed;
  Alcotest.(check bool) "no torn tail" true (r.P.torn = None);
  P.close p2;
  rm_rf dir

let test_snapshot_and_chain () =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (config dir) in
  List.iter (apply_and_log p store)
    [ List.nth sample_mutations 0; List.nth sample_mutations 1 ];
  let s = P.snapshot p in
  Alcotest.(check int) "snapshot covers both" 2 s;
  List.iter (apply_and_log p store) [ List.nth sample_mutations 2 ];
  let before = repr store in
  P.close p;
  (* normal path: resume from the snapshot, replay only the tail *)
  let p2, store2, r = P.open_dir (config dir) in
  Alcotest.(check string) "snapshot + tail" before (repr store2);
  Alcotest.(check int) "base is the snapshot" 2 r.P.base;
  Alcotest.(check int) "one record past it" 1 r.P.replayed;
  P.close p2;
  (* corrupt the snapshot: recovery must fall back to the full log
     chain (wal-0 then wal-2), counting the skipped snapshot *)
  let snap = Filename.concat dir "snapshot-000000000002.snap" in
  let img = In_channel.with_open_bin snap In_channel.input_all in
  let b = Bytes.of_string img in
  Bytes.set b (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
  Out_channel.with_open_bin snap (fun oc ->
      Out_channel.output_bytes oc b);
  let metrics = Governor.Metrics.create () in
  let p3, store3, r = P.open_dir ~metrics (config dir) in
  Alcotest.(check string) "chained from sequence 0" before (repr store3);
  Alcotest.(check int) "base fell back" 0 r.P.base;
  Alcotest.(check int) "full replay" 3 r.P.replayed;
  Alcotest.(check int) "corrupt snapshot counted" 1 r.P.corrupt_snapshots;
  Alcotest.(check int) "metrics agree" 1
    (Governor.Metrics.get metrics "recovery_corrupt_snapshots");
  P.close p3;
  rm_rf dir

(* An isa cycle never becomes a store: [of_dump] rejects it, recovery
   skips such a snapshot as corrupt, and an old log holding a load that
   closes one is cut at that record like any record that fails to
   replay. *)
let test_invalid_order () =
  let cyclic =
    { Store.dump_objs = [ ("b", [ "b" ], []) ]; dump_latest = [];
      dump_counts = []; dump_prefs = [] }
  in
  (match Store.of_dump cyclic with
  | _ -> Alcotest.fail "of_dump accepted an isa cycle"
  | exception Invalid_argument _ -> ());
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (config dir) in
  apply_and_log p store (Store.Load { src = "component a { p. }" });
  P.close p;
  Out_channel.with_open_bin
    (Filename.concat dir "snapshot-000000000001.snap")
    (fun oc ->
      output_string oc (P.Record.encode_snapshot ~seq:1 ~epoch:0 cyclic));
  let p, store, r = P.open_dir (config dir) in
  Alcotest.(check int) "cyclic snapshot counted corrupt" 1
    r.P.corrupt_snapshots;
  Alcotest.(check int) "replayed from the log" 1 r.P.replayed;
  Alcotest.(check (list string)) "store from the log" [ "a" ]
    (Store.objects store);
  (* a load that closes a cycle, logged as an older version would have *)
  P.append p (Store.Load { src = "component b extends b { q. }" });
  apply_and_log p store
    (Store.Add_rule { obj = "a"; rule = Helpers.rule "q." });
  P.close p;
  rm_rf (Filename.concat dir "snapshot-000000000001.snap");
  let p, store, r = P.open_dir (config dir) in
  Alcotest.(check int) "replay stops at the cyclic load" 1 r.P.replayed;
  Alcotest.(check bool) "log cut there" true (r.P.torn <> None);
  Alcotest.(check (list string)) "objects before it" [ "a" ]
    (Store.objects store);
  ignore (Store.to_program store : Ordered.Program.t);
  P.close p;
  rm_rf dir

let test_tmp_sweep () =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (config dir) in
  apply_and_log p store (List.nth sample_mutations 0);
  P.close p;
  let stale = Filename.concat dir "snapshot-000000000099.snap.tmp" in
  Out_channel.with_open_bin stale (fun oc ->
      Out_channel.output_string oc "half a snapshot");
  let metrics = Governor.Metrics.create () in
  let p2, _, r = P.open_dir ~metrics (config dir) in
  Alcotest.(check int) "stale temp file swept" 1 r.P.tmp_swept;
  Alcotest.(check bool) "file gone" false (Sys.file_exists stale);
  Alcotest.(check int) "metrics agree" 1
    (Governor.Metrics.get metrics "persist_tmp_swept");
  P.close p2;
  rm_rf dir

let test_auto_snapshot_and_compact () =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (config ~snapshot_every:3 dir) in
  let ms =
    [ List.nth sample_mutations 0; List.nth sample_mutations 1;
      List.nth sample_mutations 2; List.nth sample_mutations 4;
      List.nth sample_mutations 5; List.nth sample_mutations 6;
      Store.Add_rule { obj = "extra"; rule = Helpers.rule "t(2)." }
    ]
  in
  List.iter (apply_and_log p store) ms;
  Alcotest.(check bool) "auto snapshot at 3" true
    (Sys.file_exists (Filename.concat dir "snapshot-000000000003.snap"));
  Alcotest.(check bool) "auto snapshot at 6" true
    (Sys.file_exists (Filename.concat dir "snapshot-000000000006.snap"));
  let before = repr store in
  P.close p;
  let p2, store2, r = P.open_dir (config dir) in
  Alcotest.(check string) "state intact" before (repr store2);
  Alcotest.(check int) "resumed from the newest snapshot" 6 r.P.base;
  Alcotest.(check int) "tail of one" 1 r.P.replayed;
  let seq, deleted = P.compact p2 in
  Alcotest.(check int) "compaction snapshots the head" 7 seq;
  Alcotest.(check bool) "something was deleted" true (deleted > 0);
  Alcotest.(check (list string)) "only the live pair remains"
    [ "snapshot-000000000007.snap"; "wal-000000000007.log" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  P.close p2;
  let p3, store3, _ = P.open_dir (config dir) in
  Alcotest.(check string) "state survives compaction" before (repr store3);
  P.close p3;
  rm_rf dir

(* Records and snapshots past 16 MiB: the decoders check each length
   against the bytes present, so nothing caps a payload the writer
   accepted — an acknowledged large write survives a reopen, and a large
   store survives compaction (a snapshot is its only copy then). *)
let past_16_mib = (16 * 1024 * 1024) + 4096

let test_large_record () =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (config dir) in
  let src = "component big { p. }\n%" ^ String.make past_16_mib 'x' in
  apply_and_log p store (Store.Load { src });
  let before = repr store in
  P.close p;
  let p2, store2, r = P.open_dir (config dir) in
  Alcotest.(check int) "the large record is replayed" 1 r.P.seq;
  Alcotest.(check bool) "nothing torn" true (r.P.torn = None);
  Alcotest.(check string) "state intact" before (repr store2);
  P.close p2;
  rm_rf dir

let test_large_snapshot () =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (config dir) in
  let rule = Helpers.rule ("p(" ^ String.make past_16_mib 'a' ^ ").") in
  apply_and_log p store
    (Store.Define { name = "big"; isa = []; rules = [ rule ] });
  Alcotest.(check int) "compaction snapshots the head" 1 (fst (P.compact p));
  P.close p;
  let p2, store2, r = P.open_dir (config dir) in
  Alcotest.(check int) "resumed from the large snapshot" 1 r.P.base;
  Alcotest.(check int) "no corrupt snapshot" 0 r.P.corrupt_snapshots;
  (* the dump is plain data; comparing it spares printing 16 MiB twice *)
  Alcotest.(check bool) "state survives compaction" true
    (Store.dump store = Store.dump store2);
  P.close p2;
  rm_rf dir

let test_unrecoverable () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  (* a corrupt snapshot and no log reaching back to 0: nothing sound *)
  Out_channel.with_open_bin
    (Filename.concat dir "snapshot-000000000005.snap")
    (fun oc -> Out_channel.output_string oc "not a snapshot");
  (match P.open_dir (config dir) with
  | _ -> Alcotest.fail "unrecoverable directory opened"
  | exception Ordered.Diag.Error (Ordered.Diag.Invalid_input _) -> ());
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Differential: WAL replay ≡ direct application                       *)
(* ------------------------------------------------------------------ *)

let rule_pool =
  [| "p(a)."; "p(b)."; "q(X) :- p(X)."; "-p(c)."; "r(a,b).";
     "-q(X) :- r(X,b)."; "s(f(a))."; "t(X) :- s(X), not p(X)."
  |]

let any_rule () = Helpers.rule rule_pool.(rand (Array.length rule_pool))

(* Generate a mutation valid for [store]'s current state (fresh names
   from a counter; parents and targets drawn from live objects). *)
let gen_mutation =
  let fresh = ref 0 in
  fun store ->
    let objs = Store.objects store in
    let bases =
      List.filter (fun o -> not (String.contains o '@')) objs
    in
    let pick xs = List.nth xs (rand (List.length xs)) in
    match (if objs = [] then 0 else rand 11) with
    | 0 | 1 ->
      incr fresh;
      let isa = if objs <> [] && rand 2 = 0 then [ pick objs ] else [] in
      Store.Define
        { name = Printf.sprintf "g%d" !fresh;
          isa;
          rules = List.init (rand 3) (fun _ -> any_rule ())
        }
    | 2 | 3 | 4 | 5 -> Store.Add_rule { obj = pick objs; rule = any_rule () }
    | 6 | 7 ->
      (* often absent — a logged no-op is still a legal record *)
      Store.Remove_rule { obj = pick objs; rule = any_rule () }
    | 8 when bases <> [] ->
      Store.New_version
        { name = pick bases;
          rules = (if rand 2 = 0 then None else Some [ any_rule () ])
        }
    | 9 ->
      (* preference edges only ever point from a lower-numbered name to
         a higher one, so no random sequence can close a cycle *)
      let i = rand 5 in
      let j = i + 1 + rand 4 in
      let pair = (Printf.sprintf "p%d" i, Printf.sprintf "p%d" j) in
      if rand 3 = 0 then
        Store.Clear_preference { rule = fst pair; over = snd pair }
      else Store.Set_preference { rule = fst pair; over = snd pair }
    | _ ->
      incr fresh;
      Store.Load
        { src =
            Printf.sprintf "component l%d { w(%d). v(X) :- w(X). }" !fresh
              (rand 10)
        }

let test_differential_replay () =
  let rounds = max 3 (iters / 100) in
  for round = 1 to rounds do
    let dir = fresh_dir () in
    let snapshot_every = if rand 2 = 0 then 0 else 4 in
    let p, store, _ = P.open_dir (config ~snapshot_every dir) in
    let mirror = Store.create () in
    for _ = 1 to 40 do
      let m = gen_mutation store in
      Store.apply store m;
      Store.apply mirror m;
      P.append p m
    done;
    if rand 2 = 0 then ignore (P.snapshot p : int);
    let before = repr store in
    Alcotest.(check string)
      (Printf.sprintf "round %d: mirror agrees" round)
      before (repr mirror);
    P.close p;
    let p2, store2, r = P.open_dir (config dir) in
    Alcotest.(check string)
      (Printf.sprintf "round %d: replay(wal) = store" round)
      before (repr store2);
    Alcotest.(check int)
      (Printf.sprintf "round %d: sequence intact" round)
      40 r.P.seq;
    P.close p2;
    rm_rf dir
  done

(* ------------------------------------------------------------------ *)
(* Replication support: tail / group commit / point-in-time recovery   *)
(* ------------------------------------------------------------------ *)

(* Decode a [P.tail] payload back to mutations the way a replica does. *)
let unpack_tail raw =
  let rec go pos acc =
    match R.unframe raw ~pos with
    | R.End -> List.rev acc
    | R.Torn d -> Alcotest.failf "torn shipped record: %s" d
    | R.Frame { payload; next } -> (
      match R.decode_mutation payload with
      | Ok m -> go next (m :: acc)
      | Error d -> Alcotest.failf "undecodable shipped record: %s" d)
  in
  go 0 []

let reprs ms = String.concat "\n---\n" (List.map mutation_repr ms)

let test_tail () =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (config dir) in
  List.iter (apply_and_log p store) sample_mutations;
  let n = List.length sample_mutations in
  (* full history from 0 *)
  (match P.tail p ~from:0 ~max:100 with
  | Error (`Too_old _) -> Alcotest.fail "full tail reported too old"
  | Ok (raw, count) ->
    Alcotest.(check int) "all records shipped" n count;
    Alcotest.(check string) "bytes decode to the history"
      (reprs sample_mutations)
      (reprs (unpack_tail raw)));
  (* a mid-stream suffix, capped *)
  (match P.tail p ~from:3 ~max:2 with
  | Error (`Too_old _) -> Alcotest.fail "suffix reported too old"
  | Ok (raw, count) ->
    Alcotest.(check int) "max respected" 2 count;
    Alcotest.(check string) "records 4 and 5"
      (reprs [ List.nth sample_mutations 3; List.nth sample_mutations 4 ])
      (reprs (unpack_tail raw)));
  (* caught up: nothing past seq *)
  (match P.tail p ~from:n ~max:100 with
  | Ok ("", 0) -> ()
  | Ok _ -> Alcotest.fail "caught-up tail shipped bytes"
  | Error (`Too_old _) -> Alcotest.fail "caught-up tail reported too old");
  (* a snapshot rolls the log onto a new segment; the tail must chain
     across the boundary *)
  ignore (P.snapshot p : int);
  apply_and_log p store (Store.Add_rule
    { obj = "extra"; rule = Helpers.rule "t(9)." });
  (match P.tail p ~from:(n - 2) ~max:100 with
  | Error (`Too_old _) -> Alcotest.fail "cross-segment tail too old"
  | Ok (raw, count) ->
    Alcotest.(check int) "crosses the segment boundary" 3 count;
    Alcotest.(check int) "all three decode" 3
      (List.length (unpack_tail raw)));
  (* compaction drops the early segments: an old position is refused
     with the oldest retained base *)
  ignore (P.compact p : int * int);
  (match P.tail p ~from:0 ~max:100 with
  | Error (`Too_old base) ->
    Alcotest.(check int) "oldest base reported" (n + 1) base
  | Ok _ -> Alcotest.fail "compacted range shipped");
  (match P.tail p ~from:(P.seq p) ~max:100 with
  | Ok (_, 0) -> ()
  | _ -> Alcotest.fail "tip unavailable after compaction");
  P.close p;
  rm_rf dir

(* The tail as a whole-segment walk: read each segment whole and walk
   its frames from the first — the implementation before the frame
   index, kept as the oracle the indexed [P.tail] must match byte for
   byte. *)
let tail_oracle ~dir ~seq ~from ~max =
  let tail_bytes = 1024 * 1024 in
  let wal_name b = Printf.sprintf "wal-%012d.log" b in
  let read_whole path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if from >= seq then Ok ("", 0)
  else begin
    let bases =
      Sys.readdir dir |> Array.to_list
      |> List.filter_map (fun name ->
             if Filename.check_suffix name ".log" && String.length name = 20
             then int_of_string_opt (String.sub name 4 12)
             else None)
      |> List.sort compare
    in
    let start =
      List.fold_left (fun acc b -> if b <= from then Some b else acc) None bases
    in
    match start with
    | None -> Error (match bases with b :: _ -> b | [] -> -1)
    | Some b0 ->
      let buf = Buffer.create 4096 in
      let took = ref 0 in
      let full () = !took >= max || Buffer.length buf >= tail_bytes in
      let rec seg b =
        if full () then ()
        else
          match read_whole (Filename.concat dir (wal_name b)) with
          | exception Sys_error _ -> ()
          | s -> (
            match R.decode_wal_header s with
            | Ok h when h.R.wal_base = b ->
              let idx = ref b in
              let pos = ref h.R.wal_head_len in
              let stop = ref false in
              while not !stop do
                match R.unframe s ~pos:!pos with
                | R.End | R.Torn _ -> stop := true
                | R.Frame { payload = _; next } ->
                  incr idx;
                  if !idx > from && !idx <= seq && not (full ()) then begin
                    Buffer.add_substring buf s !pos (next - !pos);
                    incr took
                  end;
                  pos := next;
                  if full () || !idx >= seq then stop := true
              done;
              if
                (not (full ())) && !idx < seq
                && Sys.file_exists (Filename.concat dir (wal_name !idx))
              then seg !idx
            | Ok _ | Error _ -> ())
      in
      if max > 0 then seg b0;
      Ok (Buffer.contents buf, !took)
  end

(* Random histories — appends of small and ~100 KB records (so the
   1 MiB batch cap bites), snapshots (segment rotation), compaction,
   installed snapshots (ahead of the log or behind it), clean reopens
   and reopens over a torn tail —
   with random pulls after every step: the indexed [P.tail] ships
   exactly the oracle's bytes.  Scaled by FUZZ_ITERS. *)
let test_tail_matches_walk () =
  let big = String.make (100 * 1024) 'x' in
  for _ = 1 to Int.max 2 (iters / 1000) do
    let dir = fresh_dir () in
    let opened = ref (P.open_dir (config dir)) in
    let p () = let p, _, _ = !opened in p in
    let store () = let _, s, _ = !opened in s in
    apply_and_log (p ()) (store ()) (Store.Load { src = "component a { p. }" });
    (* a big record adds or removes the one big rule, so the store
       (and every snapshot) stays small while the log grows *)
    let big_rule = Helpers.rule (Printf.sprintf "q(%s)." big) in
    let record () =
      if rand 10 = 0 then
        if List.mem big_rule (Store.rules (store ()) "a") then
          Store.Remove_rule { obj = "a"; rule = big_rule }
        else Store.Add_rule { obj = "a"; rule = big_rule }
      else
        Store.Add_rule
          { obj = "a"; rule = Helpers.rule (Printf.sprintf "q(%d) :- p." (rand 1000)) }
    in
    let reopen () =
      P.close (p ());
      opened := P.open_dir (config dir)
    in
    for _ = 1 to 30 do
      (match rand 10 with
      | 0 -> ignore (P.snapshot (p ()) : int)
      | 1 -> ignore (P.compact (p ()) : int * int)
      | 2 ->
        (* a replaced timeline, possibly shorter: later segments may
           reuse the bases of segments it dropped *)
        P.install_snapshot (p ())
          ~seq:(Int.max 0 (P.seq (p ()) + rand 8 - 4))
          ~epoch:0
          (Store.dump (store ()))
      | 3 -> reopen ()
      | 4 ->
        (* a crash mid-append: half a frame on the newest segment *)
        let newest =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun n -> Filename.check_suffix n ".log")
          |> List.sort compare |> List.rev |> List.hd
        in
        P.close (p ());
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o644
            (Filename.concat dir newest)
        in
        output_string oc "\x40\x00\x00\x00\xde\xad";
        close_out oc;
        opened := P.open_dir (config dir)
      | _ ->
        for _ = 0 to rand 40 do
          apply_and_log (p ()) (store ()) (record ())
        done);
      for _ = 1 to 3 do
        let seq = P.seq (p ()) in
        let from = rand (seq + 3) and max = if rand 4 = 0 then 4096 else rand 60 in
        let got =
          match P.tail (p ()) ~from ~max with
          | Ok r -> Ok r
          | Error (`Too_old b) -> Error b
        in
        if got <> tail_oracle ~dir ~seq ~from ~max then
          Alcotest.failf "tail ~from:%d ~max:%d at seq %d differs from the walk"
            from max seq
      done
    done;
    P.close (p ());
    rm_rf dir
  done

let test_group_commit () =
  let dir = fresh_dir () in
  let p, store, _ =
    P.open_dir { P.dir; fsync = true; snapshot_every = 0; group_commit_ms = 2 }
  in
  let lock = Mutex.create () in
  let mirror = Store.create () in
  let writer k () =
    for i = 1 to 25 do
      let m =
        Store.Add_rule
          { obj = "extra";
            rule = Helpers.rule (Printf.sprintf "gc(%d,%d)." k i)
          }
      in
      Mutex.lock lock;
      Store.apply store m;
      Store.apply mirror m;
      P.append p m;
      Mutex.unlock lock;
      (* ack-after-durable: each writer waits for a (shared) fsync *)
      P.wait_durable p
    done
  in
  apply_and_log p store (List.nth sample_mutations 6);
  Store.apply mirror (List.nth sample_mutations 6);
  P.wait_durable p;
  let threads = List.init 4 (fun k -> Thread.create (writer k) ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "all appends sequenced" 101 (P.seq p);
  let before = repr store in
  Alcotest.(check string) "mirror agrees" before (repr mirror);
  P.close p;
  let p2, store2, r = P.open_dir (config dir) in
  Alcotest.(check int) "reopen sees every record" 101 r.P.seq;
  Alcotest.(check string) "replay reproduces the store" before (repr store2);
  P.close p2;
  rm_rf dir

let test_pitr () =
  let dir = fresh_dir () in
  let p, store, _ = P.open_dir (config dir) in
  let mirror = Store.create () in
  List.iteri
    (fun i m ->
      apply_and_log p store m;
      if i < 4 then Store.apply mirror m)
    sample_mutations;
  P.close p;
  (* rewind to sequence 4: the state is the 4-mutation prefix and the
     directory is permanently trimmed *)
  let p2, store2, r = P.open_dir ~stop_at:4 (config dir) in
  Alcotest.(check int) "rewound to 4" 4 r.P.seq;
  Alcotest.(check bool) "cut reported" true (r.P.cut <> None);
  Alcotest.(check bool) "not confused with damage" true (r.P.torn = None);
  Alcotest.(check string) "state is the prefix" (repr mirror) (repr store2);
  P.close p2;
  (* the rewind is sticky: a plain reopen stays at 4 with no cut *)
  let p3, store3, r3 = P.open_dir (config dir) in
  Alcotest.(check int) "trim survived reopen" 4 r3.P.seq;
  Alcotest.(check bool) "second recovery is clean" true (r3.P.cut = None);
  Alcotest.(check string) "state stable" (repr mirror) (repr store3);
  (* rewinding past the end is a no-op recovery *)
  P.close p3;
  let p4, _, r4 = P.open_dir ~stop_at:99 (config dir) in
  Alcotest.(check int) "stop_at past the end" 4 r4.P.seq;
  Alcotest.(check bool) "no cut" true (r4.P.cut = None);
  (* compaction forgets early history: a stop_at below the only
     snapshot is unrecoverable, and typed as such *)
  ignore (P.compact p4 : int * int);
  P.close p4;
  (match P.open_dir ~stop_at:2 (config dir) with
  | _ -> Alcotest.fail "rewind below the oldest snapshot succeeded"
  | exception Ordered.Diag.Error (Ordered.Diag.Invalid_input _) -> ());
  rm_rf dir

let suite =
  [ Alcotest.test_case "crc32 check vector" `Quick test_crc;
    Alcotest.test_case "mutation codec round-trip" `Quick
      test_mutation_roundtrip;
    Alcotest.test_case "frame walk round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "corruption fuzz never raises" `Quick
      test_corruption_fuzz;
    Alcotest.test_case "snapshot codec round-trip" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "torn WAL tail read and truncate" `Quick
      test_wal_torn_tail;
    Alcotest.test_case "reopen replays the log" `Quick test_reopen_matches;
    Alcotest.test_case "snapshot resume and corrupt fallback" `Quick
      test_snapshot_and_chain;
    Alcotest.test_case "an invalid order is corrupt or cut" `Quick
      test_invalid_order;
    Alcotest.test_case "stale temp files swept" `Quick test_tmp_sweep;
    Alcotest.test_case "auto snapshot and compaction" `Quick
      test_auto_snapshot_and_compact;
    Alcotest.test_case "a record over 16 MiB survives a reopen" `Quick
      test_large_record;
    Alcotest.test_case "a snapshot over 16 MiB survives compaction" `Quick
      test_large_snapshot;
    Alcotest.test_case "unrecoverable directory is typed" `Quick
      test_unrecoverable;
    Alcotest.test_case "differential: replay equals store" `Quick
      test_differential_replay;
    Alcotest.test_case "tail ships raw records" `Quick test_tail;
    Alcotest.test_case "indexed tail = whole-segment walk" `Quick
      test_tail_matches_walk;
    Alcotest.test_case "group commit: concurrent writers, one fsync" `Quick
      test_group_commit;
    Alcotest.test_case "point-in-time recovery" `Quick test_pitr
  ]
