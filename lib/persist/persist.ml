(* Data-directory orchestration over Wal and Record; see persist.mli for
   the layout, the snapshot/WAL ordering invariant and the recovery
   contract. *)

module Metrics = Governor.Metrics
module Crc32 = Crc32
module Record = Record
module Wal = Wal

type config = {
  dir : string;
  fsync : bool;
  snapshot_every : int;
  group_commit_ms : int;
}

type torn = {
  segment : string;
  offset : int;
  dropped : int;
  detail : string;
}

type recovery = {
  base : int;
  seq : int;
  epoch : int;
  replayed : int;
  torn : torn option;
  cut : torn option;
  corrupt_snapshots : int;
  tmp_swept : int;
}

(* Where the frames of one segment start: [starts.(i)] is the offset
   of record [base + 1 + i], [stop] the offset just past the last
   indexed frame. *)
type index = {
  mutable starts : int array;
  mutable n : int;
  mutable stop : int;
}

type t = {
  config : config;
  store : Kb.Store.t;
  metrics : Metrics.t option;
  mutable wal : Wal.t;
  mutable base : int;  (** base of the active segment *)
  mutable seq : int;  (** mutations logged so far *)
  mutable epoch : int;  (** replication epoch (fencing term) *)
  group : Wal.Group.group option;
  report : recovery;
  indexes : (int, index) Hashtbl.t;
      (** frame offsets by segment base, built on a segment's first
          {!tail} and extended by {!append} *)
}

(* ------------------------------------------------------------------ *)
(* Naming and small helpers                                            *)
(* ------------------------------------------------------------------ *)

let wal_name base = Printf.sprintf "wal-%012d.log" base
let snap_name seq = Printf.sprintf "snapshot-%012d.snap" seq

let parse_num ~lead ~trail name =
  let pl = String.length lead and sl = String.length trail in
  let n = String.length name in
  if
    n > pl + sl
    && String.sub name 0 pl = lead
    && String.sub name (n - sl) sl = trail
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub name pl (n - pl - sl))
  then int_of_string_opt (String.sub name pl (n - pl - sl))
  else None

let snap_seq = parse_num ~lead:"snapshot-" ~trail:".snap"
let wal_base = parse_num ~lead:"wal-" ~trail:".log"

let rec mkdirs dir =
  if dir <> "" && dir <> Filename.dirname dir && not (Sys.file_exists dir)
  then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count metrics name n =
  match metrics with Some m -> Metrics.add m name n | None -> ()

let bump metrics name = count metrics name 1

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let open_dir ?metrics ?stop_at config =
  mkdirs config.dir;
  let entries = Sys.readdir config.dir in
  let tmp_swept = ref 0 in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then begin
        (try Sys.remove (Filename.concat config.dir name)
         with Sys_error _ -> ());
        incr tmp_swept
      end)
    entries;
  let snaps =
    Array.to_list entries
    |> List.filter_map snap_seq
    |> List.sort (fun a b -> compare b a)
  in
  (* point-in-time recovery must start from a snapshot at or below the
     target; newer ones are not corrupt, just unusable for this replay *)
  let usable_snaps =
    match stop_at with
    | None -> snaps
    | Some n -> List.filter (fun s -> s <= n) snaps
  in
  let wals = Array.to_list entries |> List.filter_map wal_base in
  let corrupt = ref 0 in
  (* newest snapshot whose CRC (and name/seq agreement) checks out *)
  let rec pick = function
    | [] -> None
    | s :: rest -> (
      let path = Filename.concat config.dir (snap_name s) in
      match read_whole path with
      | exception Sys_error _ ->
        incr corrupt;
        pick rest
      | img -> (
        (* a snapshot whose isa links are not a strict order decodes but
           cannot be a store: corrupt like a bad CRC *)
        match Record.decode_snapshot img with
        | Ok (seq, epoch, dump) when seq = s -> (
          match Kb.Store.of_dump dump with
          | store -> Some (seq, epoch, store)
          | exception Invalid_argument _ ->
            incr corrupt;
            pick rest)
        | Ok _ | Error _ ->
          incr corrupt;
          pick rest))
  in
  (* the recovered epoch is the highest term seen anywhere in the
     directory — a crash between "start fresh segment at epoch e+1" and
     "rename the epoch-e+1 snapshot into place" must still come back as
     epoch e+1, or a revived primary could shed its fencing *)
  let epoch = ref 0 in
  let base, store =
    match pick usable_snaps with
    | Some (s, ep, store) ->
      epoch := ep;
      (s, store)
    | None ->
      if (snaps <> [] || wals <> []) && not (List.mem 0 wals) then
        Governor.Diag.invalid ~where:"Persist.open_dir"
          (match stop_at with
          | Some n ->
            Printf.sprintf
              "data directory %S cannot be rewound to sequence %d: no \
               valid snapshot at or below it and the log does not reach \
               back to sequence 0"
              config.dir n
          | None ->
            Printf.sprintf
              "data directory %S has no valid snapshot and its log does \
               not reach back to sequence 0"
              config.dir)
      else (0, Kb.Store.create ())
  in
  let seq = ref base in
  let replayed = ref 0 in
  let torn = ref None in
  let cut = ref None in
  let truncated ~path ~offset ~size detail =
    Wal.truncate ~path offset;
    torn :=
      Some
        { segment = Filename.basename path; offset; dropped = size - offset;
          detail }
  in
  (* deliberate truncation at the --to-seq target: same mechanics as a
     torn tail, reported separately so callers can tell intent from
     damage *)
  let cut_at ~path ~offset ~size target =
    Wal.truncate ~path offset;
    cut :=
      Some
        { segment = Filename.basename path; offset; dropped = size - offset;
          detail =
            Printf.sprintf "history cut at sequence %d on request" target
        }
  in
  (* replay segments in base order; each clean segment of n records names
     its successor (base + n), so the chain is deterministic *)
  let rec chain cur =
    let path = Filename.concat config.dir (wal_name cur) in
    if not (Sys.file_exists path) then
      (Wal.create ~fsync:config.fsync ~base:cur ~epoch:!epoch path, cur)
    else
      match Wal.read ~path ~expect_base:cur with
      | Error detail ->
        (* unusable header: every record <= cur is already in the store,
           but anything the file held is unreadable — report it torn and
           rewrite the segment *)
        let size =
          try (Unix.stat path).st_size with Unix.Unix_error _ -> 0
        in
        torn :=
          Some { segment = Filename.basename path; offset = 0;
                 dropped = size; detail };
        (Wal.create ~fsync:config.fsync ~base:cur ~epoch:!epoch path, cur)
      | Ok rep -> (
        if rep.Wal.epoch > !epoch then epoch := rep.Wal.epoch;
        let rec apply = function
          | [] -> `Done
          | (off, m) :: rest -> (
            match stop_at with
            | Some n when !seq >= n -> `Cut off
            | _ -> (
              match Kb.Store.apply store m with
              | () ->
                incr seq;
                incr replayed;
                apply rest
              | exception e -> `Fail (off, Printexc.to_string e)))
        in
        match apply rep.mutations with
        | `Cut off ->
          cut_at ~path ~offset:off ~size:rep.size (Option.get stop_at);
          (Wal.open_append ~path, cur)
        | `Fail (off, detail) ->
          truncated ~path ~offset:off ~size:rep.size detail;
          (Wal.open_append ~path, cur)
        | `Done -> (
          match rep.torn with
          | Some detail ->
            truncated ~path ~offset:rep.good_end ~size:rep.size detail;
            (Wal.open_append ~path, cur)
          | None ->
            let n = List.length rep.mutations in
            let next = Filename.concat config.dir (wal_name (cur + n)) in
            if n > 0 && Sys.file_exists next then chain (cur + n)
            else (Wal.open_append ~path, cur)))
  in
  let wal, active_base = chain base in
  (* after a truncation — accidental or requested — files past the
     recovered point are from a lost timeline; a later recovery must not
     chain into them *)
  if !torn <> None || !cut <> None then
    Array.iter
      (fun name ->
        let stale =
          match wal_base name with
          | Some b -> b > active_base
          | None -> (
            match snap_seq name with Some s -> s > !seq | None -> false)
        in
        if stale then
          try Sys.remove (Filename.concat config.dir name)
          with Sys_error _ -> ())
      entries;
  let report =
    { base; seq = !seq; epoch = !epoch; replayed = !replayed; torn = !torn;
      cut = !cut; corrupt_snapshots = !corrupt; tmp_swept = !tmp_swept }
  in
  (match metrics with
  | Some m ->
    Metrics.add m "recovery_base" report.base;
    Metrics.add m "recovery_replayed" report.replayed;
    Metrics.add m "recovery_truncated_bytes"
      (match report.torn with Some t -> t.dropped | None -> 0);
    Metrics.add m "recovery_corrupt_snapshots" report.corrupt_snapshots;
    Metrics.add m "persist_tmp_swept" report.tmp_swept
  | None -> ());
  let group =
    if config.fsync && config.group_commit_ms > 0 then
      Some
        (Wal.Group.create ~window_ms:config.group_commit_ms
           ~on_fsync:(fun () -> bump metrics "persist_fsyncs")
           wal)
    else None
  in
  let t =
    { config; store; metrics; wal; base = active_base; seq = !seq;
      epoch = !epoch; group; report; indexes = Hashtbl.create 4 }
  in
  (t, store, report)

(* ------------------------------------------------------------------ *)
(* Appending and snapshots                                             *)
(* ------------------------------------------------------------------ *)

(* Rotate to a fresh segment based at [seq] under snapshot-<seq>
   holding [image] (encoded at the current epoch).  Ordering matters
   for crash safety: the fresh segment must be on disk before the
   snapshot becomes visible, so that snapshot-<S> present always implies
   wal-<S> present (see persist.mli). *)
let rotate ?budget t ~seq image =
  (* a pending group commit still points at the old segment *)
  (match t.group with Some g -> Wal.Group.flush g | None -> ());
  let final = Filename.concat t.config.dir (snap_name seq) in
  let tmp = final ^ ".tmp" in
  Wal.write_file ?budget ~fsync:t.config.fsync ~path:tmp image;
  let wal_path = Filename.concat t.config.dir (wal_name seq) in
  let fresh =
    Wal.create ?budget ~fsync:t.config.fsync ~base:seq ~epoch:t.epoch
      wal_path
  in
  Wal.close t.wal;
  t.wal <- fresh;
  t.base <- seq;
  (* the fresh segment may reuse its base's name *)
  Hashtbl.remove t.indexes seq;
  (match t.group with Some g -> Wal.Group.attach g fresh | None -> ());
  Sys.rename tmp final;
  if t.config.fsync then begin
    fsync_dir t.config.dir;
    count t.metrics "persist_fsyncs" 3
  end;
  bump t.metrics "persist_snapshots"

let snapshot ?budget t =
  let seq = t.seq in
  rotate ?budget t ~seq
    (Record.encode_snapshot ~seq ~epoch:t.epoch (Kb.Store.dump t.store));
  seq

(* One more frame, from [ix.stop] to [next]. *)
let add_frame ix next =
  if ix.n = Array.length ix.starts then begin
    let a = Array.make (max 64 (2 * ix.n)) 0 in
    Array.blit ix.starts 0 a 0 ix.n;
    ix.starts <- a
  end;
  ix.starts.(ix.n) <- ix.stop;
  ix.n <- ix.n + 1;
  ix.stop <- next

(* [n] more bytes appended to the active segment, as one frame. *)
let indexed t n =
  match Hashtbl.find_opt t.indexes t.base with
  | None -> ()
  | Some ix -> add_frame ix (ix.stop + n)

let append ?budget t m =
  let payload = Record.encode_mutation m in
  (match t.group with
  | Some g ->
    (* group commit: write now, let the committer batch the fsync;
       callers that need durability block in [wait_durable] *)
    let n = Wal.append ?budget ~fsync:false t.wal payload in
    t.seq <- t.seq + 1;
    indexed t n;
    Wal.Group.wrote g ~seq:t.seq;
    bump t.metrics "persist_records";
    count t.metrics "persist_bytes" n
  | None ->
    let n = Wal.append ?budget ~fsync:t.config.fsync t.wal payload in
    t.seq <- t.seq + 1;
    indexed t n;
    bump t.metrics "persist_records";
    count t.metrics "persist_bytes" n;
    if t.config.fsync then bump t.metrics "persist_fsyncs");
  if t.config.snapshot_every > 0 && t.seq - t.base >= t.config.snapshot_every
  then ignore (snapshot ?budget t : int)

let wait_durable t =
  match t.group with Some g -> Wal.Group.wait g | None -> ()

let compact t =
  let s = snapshot t in
  let deleted = ref 0 in
  Array.iter
    (fun name ->
      let stale =
        Filename.check_suffix name ".tmp"
        ||
        match wal_base name with
        | Some b -> b < s
        | None -> (
          match snap_seq name with Some x -> x < s | None -> false)
      in
      if stale then
        match Sys.remove (Filename.concat t.config.dir name) with
        | () -> incr deleted
        | exception Sys_error _ -> ())
    (Sys.readdir t.config.dir);
  Hashtbl.filter_map_inplace
    (fun b ix -> if b < s then None else Some ix)
    t.indexes;
  (s, !deleted)

(* ------------------------------------------------------------------ *)
(* Replication support                                                 *)
(* ------------------------------------------------------------------ *)

(* A batch stops growing once it holds this many bytes. *)
let tail_bytes = 1024 * 1024

(* The frame index of segment [b], read from its file on first use:
   the frames up to the first torn or missing one.  [None] when the
   file is gone or its header does not name [b]. *)
let index_of t b =
  match Hashtbl.find_opt t.indexes b with
  | Some _ as ix -> ix
  | None -> (
    match read_whole (Filename.concat t.config.dir (wal_name b)) with
    | exception Sys_error _ -> None
    | s -> (
      match Record.decode_wal_header s with
      | Ok h when h.Record.wal_base = b ->
        let ix = { starts = [||]; n = 0; stop = h.Record.wal_head_len } in
        let rec walk () =
          match Record.unframe s ~pos:ix.stop with
          | Record.End | Record.Torn _ -> ()
          | Record.Frame { next; _ } ->
            add_frame ix next;
            walk ()
        in
        walk ();
        Hashtbl.replace t.indexes b ix;
        Some ix
      | Ok _ | Error _ -> None))

(* [len] bytes of a file from [off]. *)
let read_range path off len =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic off;
      really_input_string ic len)

let tail t ~from ~max =
  if from >= t.seq then Ok ("", 0)
  else begin
    let bases =
      Sys.readdir t.config.dir |> Array.to_list |> List.filter_map wal_base
      |> List.sort compare
    in
    (* the newest segment whose base is at or below [from]: its records
       [from + 1 ..] are exactly where the tail starts *)
    let start =
      List.fold_left (fun acc b -> if b <= from then Some b else acc) None
        bases
    in
    match start with
    | None ->
      Error (`Too_old (match bases with b :: _ -> b | [] -> t.base))
    | Some b0 ->
      let buf = Buffer.create 4096 in
      let took = ref 0 in
      let full () = !took >= max || Buffer.length buf >= tail_bytes in
      (* ship the raw framed bytes untouched: the replica re-frames
         nothing, so CRCs are verified end to end.  The index says
         which bytes: one read per segment, from the first record
         wanted *)
      let rec seg b =
        if not (full ()) then
          match index_of t b with
          | None -> ()
          | Some ix ->
            (* frame [j] spans [at j, at (j + 1)) *)
            let at j = if j < ix.n then ix.starts.(j) else ix.stop in
            let path = Filename.concat t.config.dir (wal_name b) in
            let first = Int.max 0 (from - b) and last = min ix.n (t.seq - b) in
            let j = ref first in
            while
              !j < last && !took < max
              && Buffer.length buf + (at !j - at first) < tail_bytes
            do
              incr took;
              incr j
            done;
            let read =
              !j = first
              ||
              match read_range path (at first) (at !j - at first) with
              | s ->
                Buffer.add_string buf s;
                true
              | exception (Sys_error _ | End_of_file) ->
                took := !took - (!j - first);
                false
            in
            let next = b + last in
            if
              read && (not (full ())) && next < t.seq
              && Sys.file_exists (Filename.concat t.config.dir (wal_name next))
            then seg next
      in
      if max > 0 then seg b0;
      Ok (Buffer.contents buf, !took)
  end

let snapshot_image t =
  ( t.seq,
    Record.encode_snapshot ~seq:t.seq ~epoch:t.epoch (Kb.Store.dump t.store)
  )

let install_snapshot t ~seq ~epoch dump =
  if epoch > t.epoch then t.epoch <- epoch;
  rotate t ~seq (Record.encode_snapshot ~seq ~epoch:t.epoch dump);
  (* everything else in the directory is from the replaced timeline *)
  Array.iter
    (fun name ->
      if name <> snap_name seq && name <> wal_name seq then
        try Sys.remove (Filename.concat t.config.dir name)
        with Sys_error _ -> ())
    (Sys.readdir t.config.dir);
  Hashtbl.reset t.indexes;
  Kb.Store.restore t.store dump;
  t.seq <- seq

let seq t = t.seq
let epoch t = t.epoch
let recovery t = t.report

(* Epoch changes persist through [snapshot]: the fresh segment's header
   carries the new term, and the snapshot that lands next to it does
   too, so the term survives any crash after this returns. *)
let bump_epoch t =
  t.epoch <- t.epoch + 1;
  ignore (snapshot t : int);
  t.epoch

let adopt_epoch t epoch =
  if epoch > t.epoch then begin
    t.epoch <- epoch;
    ignore (snapshot t : int)
  end

let close t =
  (match t.group with Some g -> Wal.Group.stop g | None -> ());
  Wal.close t.wal
