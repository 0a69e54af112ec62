(* The serving benchmark: one closed-loop client, in process, driving
   seeded request lines through the server's full request path —
   Server.Wire decode, Server.Engine.handle, Kb.Session (Inc / Gop /
   Vfix / Stable), Wire encode — with every write logged through a real
   Persist WAL (fsync off).  See servebench/README.md for the metrics,
   the workloads and the drift normalisation.

     servebench.exe --workload read-hot|write-mix|cold-view
                    --seed N --seconds S --trace 0|1

   The last stdout line is the result object
   {"correct", "attempted", "failed", "metrics"}; the lines before it
   are the deterministic counter block ("counters ...") and the drift
   report ("drift ..."). *)

module W = Server.Wire
module E = Server.Engine
module S = Kb.Session
module St = Kb.Store
module B = Ordered.Budget
module M = Governor.Metrics

(* ------------------------------------------------------------------ *)
(* Clock, samples, statistics                                          *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable float array kept outside the OCaml heap (a Bigarray), so
   collecting samples neither boxes floats nor moves the heap figures
   the benchmark reports. *)
module Fbuf = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 256; n = 0 }

  let push b x =
    if b.n = Array1.dim b.a then begin
      let a = Array1.create float64 c_layout (2 * b.n) in
      Array1.blit b.a (Array1.sub a 0 b.n);
      b.a <- a
    end;
    Array1.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let get b i = b.a.{i}

  let sorted b =
    let a = Array.init b.n (fun i -> b.a.{i}) in
    Array.sort Float.compare a;
    a

  let sum b =
    let s = ref 0. in
    for i = 0 to b.n - 1 do
      s := !s +. b.a.{i}
    done;
    !s
end

(* Linear interpolation between closest ranks; 0 for an empty set (a
   layer that did no work in this workload). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 < n then (sorted.(i) *. (1. -. f)) +. (sorted.(i + 1) *. f)
    else sorted.(i)

let p50 b = quantile (Fbuf.sorted b) 0.5
let mean b = if b.Fbuf.n = 0 then 0. else Fbuf.sum b /. float_of_int b.n

(* ------------------------------------------------------------------ *)
(* Reference kernel                                                    *)
(* ------------------------------------------------------------------ *)

(* Fixed work that stands in for "how fast is the machine right now".
   It mixes what the request path spends its time on: small int maps
   built and folded (allocation, pointer chasing, compares), printf
   formatting into short strings, and an MD5 digest (the fingerprint's
   hash).  It only allocates short-lived minor-heap values, and the
   minor heap is emptied first, so no collection lands inside it and its
   time does not depend on the program's own heap.  One timing is the
   median of three back-to-back runs, so a single interrupt does not
   skew it. *)
module Imap = Map.Make (Int)

let kernel_reps = 12
let kernel_text = String.init 1024 (fun i -> Char.chr (97 + (i * 7 mod 26)))

let kernel () =
  let acc = ref 0 in
  for r = 1 to kernel_reps do
    let m = ref Imap.empty in
    for i = 0 to 63 do
      m := Imap.add (((i * 37) + r) land 127) i !m
    done;
    acc := Imap.fold (fun k v a -> a + k + v) !m !acc;
    for i = 0 to 7 do
      acc := !acc + String.length (Printf.sprintf "f%d(e%03d_%d)" i r !acc)
    done;
    acc := !acc + Char.code (Digest.string kernel_text).[r land 15]
  done;
  ignore (Sys.opaque_identity !acc : int)

(* Kernel time (ms) on a quiet machine of the kind the benchmark was
   written on; normalised times are expressed against it.  Changing it
   rescales every normalised figure, so it is a committed constant. *)
let ref_nominal_ms = 0.1

let time_kernel () =
  Gc.minor ();
  let once () =
    let t0 = now_ns () in
    kernel ();
    float_of_int (now_ns () - t0) /. 1e6
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type cls = Query | Models | Write

let cls_name = function Query -> "query" | Models -> "models" | Write -> "write"

type op =
  | Q of { obj : string; lit : string }
  | Mo of { obj : string; limit : int }
  | Wr of { obj : string; mutation : St.mutation }

type req = {
  op : op;
  line : string;  (* the encoded request, as a client would send it *)
  check : bool;  (* recompute this one from scratch and compare *)
}

let cls_of r = match r.op with Q _ -> Query | Mo _ -> Models | Wr _ -> Write

type workload = {
  name : string;
  kb_src : string;  (* loaded through the engine at set-up *)
  views : (string * string) list;  (* read viewpoints and their query literal *)
  limit : int;  (* the [models] limit *)
  stream : req array;  (* one round's timed requests *)
  chunk : int;  (* requests between two reference-kernel runs *)
}

(* The KB follows the paper's Section 5 object reading.  A chain of
   classes k0 <- k1 <- ... <- k5 sets defaults that each level overrules
   for the entities carrying its trait (every trait is stated true or
   false, so the least model decides the chain); k1 also holds a choice
   gadget — two defaults that overrule each other — so every entity
   splits the stable models in two (2^5 per individual).  Individuals extend the leaf class
   and all have the same shape, so every request of one class does the
   same work; [side] is an object no individual can see. *)
let depth = 6
let ents = depth - 1

let classes_src () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "component k0 { alive(X) :- ent(X). f0(X) :- ent(X). pa(X) :- ent(X). \
     pb(X) :- ent(X). }\n";
  for i = 1 to depth - 1 do
    Printf.bprintf b
      "component k%d extends k%d { f%d(X) :- f%d(X). -f%d(X) :- t%d(X). \
       g%d(X) :- f%d(X), alive(X).%s }\n"
      i (i - 1) i (i - 1) (i - 1) i i i
      (if i = 1 then " -pa(X) :- pb(X). -pb(X) :- pa(X)." else "")
  done;
  Buffer.add_string b "component side { mark. }\n";
  Buffer.contents b

let leaf = Printf.sprintf "k%d" (depth - 1)
let isa = [ leaf ]

(* One individual's local facts: one entity per trait level, each with
   its own level stated true and every other level false; the seed
   shuffles which entity carries which level and names them.  Entity
   names carry the object index, so no two individuals share a
   constant.  Returns the facts and the entity carrying the deepest
   level (the one the read requests ask about). *)
let individual_facts rng idx =
  let traits = Array.init ents (fun i -> i + 1) in
  for i = ents - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = traits.(i) in
    traits.(i) <- traits.(j);
    traits.(j) <- t
  done;
  let b = Buffer.create 512 in
  let asked = ref "" in
  Array.iteri
    (fun j trait ->
      let e = Printf.sprintf "e%03d_%03d_%d" idx (Random.State.int rng 1000) j in
      if trait = ents then asked := e;
      Printf.bprintf b "ent(%s)." e;
      for i = 1 to ents do
        Printf.bprintf b " %st%d(%s)." (if i = trait then "" else "-") i e
      done;
      Buffer.add_char b ' ')
    traits;
  (Buffer.contents b, !asked)

let obj_name idx = Printf.sprintf "o%03d" idx

let kb_of rng ~objects =
  let b = Buffer.create 65536 in
  Buffer.add_string b (classes_src ());
  let asked = Array.make objects "" in
  for i = 0 to objects - 1 do
    let facts, e = individual_facts rng i in
    asked.(i) <- e;
    Printf.bprintf b "component %s extends %s { %s}\n" (obj_name i)
      (String.concat ", " isa) facts
  done;
  (Buffer.contents b, asked)

let line fields = W.to_string (W.Obj fields)

let query_req ~check obj lit =
  { op = Q { obj; lit };
    line =
      line [ ("op", W.String "query"); ("obj", W.String obj); ("lit", W.String lit) ];
    check
  }

let models_req ~check ~limit obj =
  { op = Mo { obj; limit };
    line =
      line
        [ ("op", W.String "models"); ("obj", W.String obj);
          ("kind", W.String "stable"); ("limit", W.Int limit) ];
    check
  }

let rule_req ~check ~add obj src =
  let rule = Lang.Parser.parse_rule src in
  { op =
      Wr
        { obj;
          mutation =
            (if add then St.Add_rule { obj; rule } else St.Remove_rule { obj; rule })
        };
    line =
      line
        [ ("op", W.String (if add then "add_rule" else "remove_rule"));
          ("obj", W.String obj); ("rule", W.String src) ];
    check
  }

let define_req ~check name facts =
  { op =
      Wr
        { obj = name;
          mutation = St.Define { name; isa; rules = Lang.Parser.parse_rules facts }
        };
    line =
      line
        [ ("op", W.String "define"); ("name", W.String name);
          ("isa", W.List (List.map (fun p -> W.String p) isa));
          ("rules", W.String facts) ];
    check
  }

(* Roughly one request in [check_every] of each class is recomputed
   from scratch; which ones is part of the seeded stream. *)
let check_every = 12

let make_workload name ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let check () = Random.State.int rng check_every = 0 in
  let limit = 4 in
  let objects, nviews =
    match name with
    | "read-hot" -> (100, 8)
    | "write-mix" -> (200, 8)
    | "cold-view" -> (100, 8)
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  let kb_src, asked = kb_of rng ~objects in
  (* the read viewpoints: a seeded choice of distinct individuals *)
  let perm = Array.init objects Fun.id in
  for i = objects - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let views =
    List.init nviews (fun i ->
        let o = perm.(i) in
        (obj_name o, Printf.sprintf "g%d(%s)" (depth - 1) asked.(o)))
  in
  let view i = List.nth views (i mod nviews) in
  let stream, chunk =
    match name with
    | "read-hot" ->
      (* hits on the warmed viewpoints; every [every]-th step one write
         to [side], outside every viewpoint's isa-cone, alternately
         adding and removing the same rule.  A write churns the caches
         for the reads after it; at one step in 16 those reads stay well
         below the 10% that p90 looks at. *)
      let steps = 1600 and every = 16 in
      let acc = ref [] in
      for s = 0 to steps - 1 do
        let obj, lit = view s in
        acc := query_req ~check:(check ()) obj lit
               :: models_req ~check:(check ()) ~limit obj :: !acc;
        if s mod every = every - 1 then begin
          let w = s / every in
          let src = Printf.sprintf "s%d :- mark." (w / 2 mod 16) in
          acc := rule_req ~check:(check ()) ~add:(w mod 2 = 0) "side" src :: !acc
        end
      done;
      (Array.of_list (List.rev !acc), 66)
    | "write-mix" ->
      (* each step: a write on the leaf class every viewpoint inherits
         from (repair of all of them, eviction of their enumerations),
         then a models (evicted: a fresh search) and a query (repaired
         least model: a hit) on the next viewpoint *)
      let steps = 100 in
      let acc = ref [] in
      for s = 0 to steps - 1 do
        let src = Printf.sprintf "w%d(X) :- f%d(X), alive(X)." (s / 2 mod 8) (depth - 1) in
        acc := rule_req ~check:(check ()) ~add:(s mod 2 = 0) leaf src :: !acc;
        let obj, lit = view s in
        acc := query_req ~check:(check ()) obj lit
               :: models_req ~check:(check ()) ~limit obj :: !acc
      done;
      (Array.of_list (List.rev !acc), 6)
    | _ ->
      (* cold-view: define a fresh individual, then ask it a query and
         a models — nothing cached can answer either *)
      let steps = 100 in
      let acc = ref [] in
      for s = 0 to steps - 1 do
        let idx = objects + s in
        let facts, asked = individual_facts rng idx in
        let name = obj_name idx in
        acc := models_req ~check:(check ()) ~limit name
               :: query_req ~check:(check ()) name
                    (Printf.sprintf "g%d(%s)" (depth - 1) asked)
               :: define_req ~check:(check ()) name facts :: !acc
      done;
      (Array.of_list (List.rev !acc), 3)
  in
  { name; kb_src; views; limit; stream; chunk }

(* ------------------------------------------------------------------ *)
(* The server under test                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let state_root = ".servebench"

(* The WAL flush policy; stated in the output. *)
let persist_config dir =
  { Persist.dir; fsync = false; snapshot_every = 0; group_commit_ms = 0 }

type server = {
  engine : E.t;
  session : S.t;
  metrics : M.t;
  persist : Persist.t;
  dir : string;
  last_append_ms : float ref;  (* traced: the observer times each append *)
}

let open_server ~dir ~traced =
  let metrics = M.create () in
  let p, store, _ = Persist.open_dir ~metrics (persist_config dir) in
  let session = S.of_store store in
  let last_append_ms = ref 0. in
  if traced then
    S.on_mutation session (fun m ->
        let t0 = now_ns () in
        Persist.append p m;
        last_append_ms := float_of_int (now_ns () - t0) /. 1e6)
  else S.on_mutation session (fun m -> Persist.append p m);
  let persistence =
    { E.snapshot = (fun () -> Persist.snapshot p);
      seq = (fun () -> Persist.seq p);
      epoch = (fun () -> Persist.epoch p);
      wait_durable = (fun () -> Persist.wait_durable p);
      tail =
        (fun ~from ~max ->
          match Persist.tail p ~from ~max with
          | Ok _ as ok -> ok
          | Error (`Too_old base) -> Error base);
      snapshot_image = (fun () -> Persist.snapshot_image p)
    }
  in
  let engine = E.create ~metrics ~session ~persistence () in
  { engine; session; metrics; persist = p; dir; last_append_ms }

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

let mismatches = ref []

let mismatch fmt =
  Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt

let value_string = function
  | Logic.Interp.True -> "true"
  | Logic.Interp.False -> "false"
  | Logic.Interp.Undefined -> "undefined"

let model_strings ms =
  List.map
    (fun m -> List.map Logic.Literal.to_string (Logic.Interp.to_literals m))
    ms

let response_models resp =
  match W.member "models" resp with
  | Some (W.List ms) ->
    List.map
      (function
        | W.List ls ->
          List.map (function W.String s -> s | _ -> "?") ls
        | _ -> [ "?" ])
      ms
  | _ -> [ [ "?" ] ]

let rule_strings store obj = List.map Logic.Rule.to_string (St.rules store obj)

(* Recompute a sampled request's answer through an uncached store copy
   of the same KB state (the request path is single-threaded, so the
   master store is exactly the state the request was answered from).
   Only the cheap snapshot is taken here; the returned closure does the
   recomputation later, at the end of the chunk, so that the timed
   request after a sampled one does not start with caches the check
   just churned. *)
let check_request srv shadow r resp =
  match r.op with
  | Q { obj; lit } ->
    let fresh = St.copy (S.store srv.session) in
    fun () ->
      let want = value_string (St.query fresh ~obj (Lang.Parser.parse_literal lit)) in
      (match W.member "value" resp with
      | Some (W.String v) when v = want -> ()
      | _ -> mismatch "query %s %s: got %s, want %s" obj lit (W.to_string resp) want)
  | Mo { obj; limit } ->
    let fresh = St.copy (S.store srv.session) in
    fun () -> (
      match St.stable_models ~limit fresh ~obj with
      | B.Complete ms ->
        if model_strings ms <> response_models resp then
          mismatch "models %s: model list differs from scratch" obj
      | B.Partial _ -> mismatch "models %s: scratch enumeration partial" obj)
  | Wr { obj; mutation } ->
    let view_rules = S.rules srv.session obj and view_objs = S.objects srv.session in
    let want_rules = St.rules shadow obj and want_objs = St.objects shadow in
    fun () ->
      let strings = List.map Logic.Rule.to_string in
      if strings view_rules <> strings want_rules then
        mismatch "write on %s: published rules differ from replay" obj;
      if view_objs <> want_objs then
        mismatch "write on %s: published objects differ from replay" obj;
      (match mutation, W.member "removed" resp with
      | St.Remove_rule _, Some (W.Bool true) -> ()
      | St.Remove_rule _, _ -> mismatch "remove_rule on %s: not removed" obj
      | _ -> ())

(* After a round: the WAL must replay to the store the session ended
   with. *)
let check_wal srv =
  Persist.close srv.persist;
  let p, recovered, _ = Persist.open_dir (persist_config srv.dir) in
  Persist.close p;
  let live = S.store srv.session in
  if St.objects recovered <> St.objects live then mismatch "WAL replay: objects differ"
  else
    List.iter
      (fun o ->
        if rule_strings recovered o <> rule_strings live o
           || St.parents recovered o <> St.parents live o
        then mismatch "WAL replay: object %s differs" o)
      (St.objects live)

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer shadow timings                                *)
(* ------------------------------------------------------------------ *)

(* What the session holds per viewpoint, mirrored by the benchmark so a
   shadow call can rerun a layer on the exact input the request met:
   the grounding with provenance, the cached least model, and the flat
   program compiled from that grounding. *)
type tracked = {
  mutable st : Inc.Reground.state;
  mutable least : Logic.Interp.t option;
  mutable flat : (Ordered.Gop.t * Solve.Flat.t) option;
}

type trace = {
  decode_us : Fbuf.t;
  encode_us : Fbuf.t;
  engine_ms : Fbuf.t array;  (* by class *)
  unattributed_ms : Fbuf.t array;
  copy_ms : Fbuf.t;
  append_ms : Fbuf.t;
  reground_ms : Fbuf.t;  (* per write: summed over repaired viewpoints *)
  repair_ms : Fbuf.t;
  ground_ms : Fbuf.t;  (* per grounding miss *)
  lfp_ms : Fbuf.t;
  compile_ms : Fbuf.t;
  pruned_ms : Fbuf.t;
  kernel_ms : Fbuf.t;
  gop_atoms : Fbuf.t;  (* per read: size of the grounding answered from *)
  gop_rules : Fbuf.t;
  views : (string, tracked) Hashtbl.t;
  mutable bytes_out : int;
  mutable compiles : int;
  mutable flat_hits : int;
  mutable searches : int;
  pruned : Ordered.Counters.t;
  kernel_c : Ordered.Counters.t;
}

let new_trace () =
  let cls () = Array.init 3 (fun _ -> Fbuf.create ()) in
  { decode_us = Fbuf.create (); encode_us = Fbuf.create ();
    engine_ms = cls (); unattributed_ms = cls ();
    copy_ms = Fbuf.create (); append_ms = Fbuf.create (); reground_ms = Fbuf.create ();
    repair_ms = Fbuf.create (); ground_ms = Fbuf.create ();
    lfp_ms = Fbuf.create (); compile_ms = Fbuf.create ();
    pruned_ms = Fbuf.create (); kernel_ms = Fbuf.create ();
    gop_atoms = Fbuf.create (); gop_rules = Fbuf.create ();
    views = Hashtbl.create 64; bytes_out = 0; compiles = 0; flat_hits = 0;
    searches = 0; pruned = Ordered.Counters.create ();
    kernel_c = Ordered.Counters.create ()
  }

let cls_index = function Query -> 0 | Models -> 1 | Write -> 2

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) /. 1e6)

let sees store ~viewpoint ~obj =
  let rec go seen = function
    | [] -> false
    | x :: rest ->
      if String.equal x obj then true
      else if List.mem x seen then go seen rest
      else go (x :: seen) (List.rev_append (St.parents store x) rest)
  in
  go [] [ viewpoint ]

(* Ground a viewpoint from scratch, as the session does on a miss:
   the timed layer is Gop.ground; the provenance state the session
   keeps is rebuilt beside it, untimed. *)
let shadow_ground tr store obj =
  let prog = St.to_program store in
  let cid = Ordered.Program.component_id_exn prog obj in
  let _, ms = timed (fun () -> Ordered.Gop.ground prog cid) in
  let t = { st = Inc.Reground.ground prog cid; least = None; flat = None } in
  Hashtbl.replace tr.views obj t;
  (t, ms)

let tracked_or_ground tr store obj =
  match Hashtbl.find_opt tr.views obj with
  | Some t -> (t, 0.)
  | None ->
    let t, ms = shadow_ground tr store obj in
    Fbuf.push tr.ground_ms ms;
    (t, ms)

(* Layer times attributed to one request (ms), from shadows rerun on
   the inputs it met.  [missed]: the session computed the result. *)
let shadow_read tr store r ~missed =
  match r.op with
  | Q { obj; _ } ->
    if not missed then 0.
    else begin
      let t, g = tracked_or_ground tr store obj in
      let _, lfp = timed (fun () -> Ordered.Vfix.lfp t.st.gop) in
      Fbuf.push tr.lfp_ms lfp;
      t.least <- Some (Ordered.Vfix.least_model t.st.gop);
      g +. lfp
    end
  | Mo { obj; limit } ->
    if not missed then 0.
    else begin
      let t, g = tracked_or_ground tr store obj in
      let gop = t.st.gop in
      tr.searches <- tr.searches + 1;
      let pr, pms =
        timed (fun () -> Ordered.Stable.stable_models ~limit ~stats:tr.pruned gop)
      in
      Fbuf.push tr.pruned_ms pms;
      let flat =
        match t.flat with
        | Some (g', f) when g' == gop ->
          tr.flat_hits <- tr.flat_hits + 1;
          f
        | _ ->
          let f, cms = timed (fun () -> Solve.Flat.compile gop) in
          Fbuf.push tr.compile_ms cms;
          tr.compiles <- tr.compiles + 1;
          t.flat <- Some (gop, f);
          f
      in
      let kr, kms =
        timed (fun () ->
            Solve.Kernel.stable_models ~limit ~stats:tr.kernel_c ~flat gop)
      in
      Fbuf.push tr.kernel_ms kms;
      if model_strings (B.value kr) <> model_strings (B.value pr) then
        mismatch "models %s: kernel and pruned search disagree" obj;
      g +. pms
    end
  | Wr _ -> 0.

(* A write's shadows: the store copy the publish makes, and the
   incremental repair of every tracked viewpoint that can see the
   mutated object. *)
let shadow_write tr store r =
  match r.op with
  | Wr { obj; mutation } ->
    let _, copy = timed (fun () -> St.copy store) in
    Fbuf.push tr.copy_ms copy;
    let reg = ref 0. and rep = ref 0. in
    (match mutation with
    | St.Add_rule _ | St.Remove_rule _ ->
      let program = lazy (St.to_program store) in
      let touched =
        Hashtbl.fold
          (fun w t acc -> if sees store ~viewpoint:w ~obj then (w, t) :: acc else acc)
          tr.views []
      in
      List.iter
        (fun (w, t) ->
          let program = Lazy.force program in
          match timed (fun () -> Inc.Reground.reground t.st ~program) with
          | Ok (st', d), ms ->
            reg := !reg +. ms;
            t.st <- st';
            if not (Inc.Delta.is_empty d) then begin
              t.flat <- None;
              match t.least with
              | None -> ()
              | Some prev -> (
                match
                  timed (fun () ->
                      Inc.Repair.least_model ~previous:prev st'.Inc.Reground.gop d)
                with
                | (Inc.Repair.Repaired i | Inc.Repair.Recomputed i), ms ->
                  rep := !rep +. ms;
                  t.least <- Some i
                | Inc.Repair.Unchanged, ms -> rep := !rep +. ms)
            end
          | Error _, ms ->
            reg := !reg +. ms;
            Hashtbl.remove tr.views w)
        touched
    | _ -> ());
    Fbuf.push tr.reground_ms !reg;
    Fbuf.push tr.repair_ms !rep;
    copy +. !reg +. !rep
  | Q _ | Mo _ -> 0.

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* End-to-end samples, pooled over rounds.  Every timing is kept raw
   next to the reference-kernel time measured around it (the mean of
   the kernel runs on either side of its chunk); it is normalised at
   the end of the run. *)
type samples = {
  lat : Fbuf.t array;  (* per class, in stream order, round after round: ms *)
  lat_ref : Fbuf.t array;  (* per class: its chunk's reference, ms *)
  chunk_ref : Fbuf.t;
  chunk_n : Fbuf.t;  (* requests in the chunk *)
  chunk_ms : Fbuf.t;  (* their summed wall time *)
  setup : Fbuf.t;  (* set-up wall time, s *)
  setup_ref : Fbuf.t;
  kernel : Fbuf.t;  (* every reference-kernel timing *)
}

let new_samples () =
  let cls () = Array.init 3 (fun _ -> Fbuf.create ()) in
  { lat = cls (); lat_ref = cls (); chunk_ref = Fbuf.create ();
    chunk_n = Fbuf.create (); chunk_ms = Fbuf.create ();
    setup = Fbuf.create (); setup_ref = Fbuf.create (); kernel = Fbuf.create () }

let attempted = ref 0
let failed = ref 0

let check_ok line resp =
  incr attempted;
  if W.status_of_response resp <> `Ok then begin
    incr failed;
    mismatch "request failed: %s -> %s" line (W.to_string resp)
  end

let session_counters s =
  let c = S.counters s in
  [ ("hits", c.S.hits); ("misses", c.misses); ("invalidations", c.invalidations);
    ("repairs", c.repairs); ("fallbacks", c.fallbacks);
    ("evictions", c.evictions); ("kept", c.kept) ]

let diff_counters a b = List.map2 (fun (k, x) (_, y) -> (k, y - x)) a b

let ints l = W.Obj (List.map (fun (k, v) -> (k, W.Int v)) l)

let setups = ref 0

(* Set-up, timed between two kernel runs: open a fresh data directory,
   load the workload's KB through the engine, warm every read
   viewpoint (a query and a models each). *)
let setup wl samples ~traced =
  incr setups;
  let dir =
    Filename.concat state_root
      (Printf.sprintf "%s-%d-%d" wl.name (Unix.getpid ()) !setups)
  in
  rm_rf dir;
  let k0 = time_kernel () in
  let t0 = now_ns () in
  let srv = open_server ~dir ~traced in
  let serve line = check_ok line (E.handle_line srv.engine line) in
  serve (line [ ("op", W.String "load"); ("src", W.String wl.kb_src) ]);
  List.iter
    (fun (obj, lit) ->
      serve (query_req ~check:false obj lit).line;
      serve (models_req ~check:false ~limit:wl.limit obj).line)
    wl.views;
  Fbuf.push samples.setup (float_of_int (now_ns () - t0) /. 1e9);
  let k1 = time_kernel () in
  Fbuf.push samples.kernel k0;
  Fbuf.push samples.kernel k1;
  Fbuf.push samples.setup_ref ((k0 +. k1) /. 2.);
  srv

let close_server srv =
  Persist.close srv.persist;
  rm_rf srv.dir

let run_round wl samples ~trace =
  let srv = setup wl samples ~traced:(trace <> None) in
  let shadow = St.create () in
  St.load shadow wl.kb_src;
  (match trace with
  | Some tr ->
    Hashtbl.reset tr.views;
    List.iter
      (fun (obj, _) ->
        let t, _ = shadow_ground tr (S.store srv.session) obj in
        t.least <- Some (Ordered.Vfix.least_model t.st.gop))
      wl.views
  | None -> ());
  let sess0 = session_counters srv.session in
  let met0 = M.snapshot srv.metrics in
  let n = Array.length wl.stream in
  let chunk_cls = Array.make wl.chunk 0 in
  let minor = ref 0. and major = ref 0. and majcol = ref 0 in
  let writes = ref 0 in
  let pending = ref [] in
  let kprev = ref (time_kernel ()) in
  Fbuf.push samples.kernel !kprev;
  let i = ref 0 in
  while !i < n do
    let len = min wl.chunk (n - !i) in
    let chunk_sum = ref 0. in
    for c = 0 to len - 1 do
      let r = wl.stream.(!i + c) in
      let cls = cls_of r in
      if cls = Write then incr writes;
      let mw0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
      let resp, ms =
        match trace with
        | None ->
          let t0 = now_ns () in
          let resp = E.handle_line srv.engine r.line in
          let out = W.to_string resp in
          let t1 = now_ns () in
          ignore (Sys.opaque_identity out : string);
          (resp, float_of_int (t1 - t0) /. 1e6)
        | Some tr ->
          let sc0 = S.counters srv.session in
          let t0 = now_ns () in
          let req = W.decode_request r.line in
          let t1 = now_ns () in
          let resp =
            match req with
            | Ok req -> E.handle srv.engine req
            | Error e -> W.error_response ~kind:"proto" (W.error_to_string e)
          in
          let t2 = now_ns () in
          let out = W.to_string resp in
          let t3 = now_ns () in
          tr.bytes_out <- tr.bytes_out + String.length out;
          Fbuf.push tr.decode_us (float_of_int (t1 - t0) /. 1e3);
          Fbuf.push tr.encode_us (float_of_int (t3 - t2) /. 1e3);
          let engine_ms = float_of_int (t2 - t1) /. 1e6 in
          let sc1 = S.counters srv.session in
          let store = S.store srv.session in
          let attributed =
            match r.op with
            | Wr _ ->
              let append = !(srv.last_append_ms) in
              Fbuf.push tr.append_ms append;
              append +. shadow_write tr store r
            | Q { obj; _ } | Mo { obj; _ } ->
              let a = shadow_read tr store r ~missed:(sc1.S.misses > sc0.S.misses) in
              (match Hashtbl.find_opt tr.views obj with
              | Some t ->
                Fbuf.push tr.gop_atoms (float_of_int (Ordered.Gop.n_atoms t.st.gop));
                Fbuf.push tr.gop_rules (float_of_int (Ordered.Gop.n_rules t.st.gop))
              | None -> ());
              a
          in
          let k = cls_index (cls_of r) in
          Fbuf.push tr.engine_ms.(k) engine_ms;
          Fbuf.push tr.unattributed_ms.(k) (engine_ms -. attributed);
          (resp, engine_ms)
      in
      let mw1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
      minor := !minor +. (mw1 -. mw0);
      major := !major +. (gc1.Gc.major_words -. gc0.Gc.major_words);
      majcol := !majcol + (gc1.Gc.major_collections - gc0.Gc.major_collections);
      chunk_cls.(c) <- cls_index cls;
      chunk_sum := !chunk_sum +. ms;
      Fbuf.push samples.lat.(cls_index cls) ms;
      check_ok r.line resp;
      (match r.op with
      | Wr { mutation; _ } -> St.apply shadow mutation
      | _ -> ());
      if r.check then pending := check_request srv shadow r resp :: !pending
    done;
    List.iter (fun f -> f ()) (List.rev !pending);
    pending := [];
    let knext = time_kernel () in
    Fbuf.push samples.kernel knext;
    let ref_ms = (!kprev +. knext) /. 2. in
    kprev := knext;
    for c = 0 to len - 1 do
      Fbuf.push samples.lat_ref.(chunk_cls.(c)) ref_ms
    done;
    Fbuf.push samples.chunk_ref ref_ms;
    Fbuf.push samples.chunk_n (float_of_int len);
    Fbuf.push samples.chunk_ms !chunk_sum;
    i := !i + len
  done;
  let sess = diff_counters sess0 (session_counters srv.session) in
  let met1 = M.snapshot srv.metrics in
  let met_delta =
    List.map
      (fun (k, v) ->
        (k, v - Option.value ~default:0 (List.assoc_opt k met0)))
      met1
  in
  let per_op x = x /. float_of_int n in
  let wal_bytes = List.assoc_opt "persist_bytes" met_delta |> Option.value ~default:0 in
  let counters =
    [ ("workload", W.String wl.name);
      ("requests", W.Int n);
      ("writes", W.Int !writes);
      ("session", ints sess);
      ("metrics", ints met1);
      ("gc",
       W.Obj
         [ ("minor_words_per_op", W.Float (per_op !minor));
           ("major_words_per_op", W.Float (per_op !major));
           ("major_collections", W.Int !majcol) ]);
      ("wal_bytes_per_write",
       W.Float (if !writes = 0 then 0. else float_of_int wal_bytes /. float_of_int !writes))
    ]
    @
    match trace with
    | Some tr ->
      let c = tr.pruned and k = tr.kernel_c in
      [ ("search",
         ints
           [ ("searches", tr.searches); ("nodes", c.nodes); ("leaves", c.leaves);
             ("prunes", c.prunes); ("forced", c.forced); ("models", c.models) ]);
        ("kernel",
         ints
           [ ("nodes", k.nodes); ("propagations", k.propagations);
             ("conflicts", k.conflicts); ("learned", k.learned);
             ("restarts", k.restarts) ]);
        ("flat", ints [ ("compiles", tr.compiles); ("cache_hits", tr.flat_hits) ]);
        ("bytes_out", W.Int tr.bytes_out) ]
    | None -> []
  in
  check_wal srv;
  rm_rf srv.dir;
  counters

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Each sample scaled by [ref_nominal / its reference]. *)
let normalise vals refs =
  let b = Fbuf.create () in
  for i = 0 to vals.Fbuf.n - 1 do
    Fbuf.push b (Fbuf.get vals i *. ref_nominal_ms /. Fbuf.get refs i)
  done;
  b

(* Every round replays the same request stream on a fresh server, so the
   j-th request of a class does the same work in every round.  Its
   latency is taken as the median over rounds (a burst of interference
   from outside the process rarely hits the same request in most
   rounds); percentiles are then taken over the stream positions. *)
let per_position ~rounds v =
  let per = v.Fbuf.n / rounds in
  let b = Fbuf.create () in
  for j = 0 to per - 1 do
    let c = Fbuf.create () in
    for r = 0 to rounds - 1 do
      Fbuf.push c (Fbuf.get v ((r * per) + j))
    done;
    Fbuf.push b (p50 c)
  done;
  Fbuf.sorted b

let metric name unit v = (name, W.Obj [ ("value", W.Float v); ("unit", W.String unit) ])

(* Set-ups timed before the first round, on top of one per round, so
   the set-up median rests on several samples even when rounds are
   long. *)
let extra_setups = 4
let min_rounds = 3
let max_rounds = 200

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "read-hot | write-mix | cold-view");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "servebench --workload W --seed N --seconds S --trace 0|1";
  let wl =
    try make_workload !workload ~seed:!seed
    with Invalid_argument m ->
      prerr_endline ("servebench: " ^ m);
      exit 2
  in
  (try Unix.mkdir state_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tr = if !trace = 1 then Some (new_trace ()) else None in
  let samples = new_samples () in
  let t_start = now_ns () in
  for _ = 1 to extra_setups do
    close_server (setup wl samples ~traced:false)
  done;
  let rounds = ref 0 and first = ref [] and heap_words = ref 0 in
  let continue () =
    !rounds < max_rounds
    && (!rounds < min_rounds
       || float_of_int (now_ns () - t_start) /. 1e9 < float_of_int !seconds)
  in
  while continue () do
    let counters = run_round wl samples ~trace:tr in
    if !rounds = 0 then first := counters;
    incr rounds;
    (* the peak heap after a fixed amount of work, so it does not
       depend on how many rounds the run had time for *)
    if !rounds = min_rounds then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    Gc.compact ()
  done;
  (try Unix.rmdir state_root with Unix.Unix_error _ -> ());
  let nrounds = !rounds and first = !first in
  let correct = !failed = 0 && !mismatches = [] in
  List.iter (fun m -> prerr_endline ("servebench: MISMATCH " ^ m)) (List.rev !mismatches);
  let kernel_sorted = Fbuf.sorted samples.kernel in
  let kp50 = quantile kernel_sorted 0.5 in
  let kspread = (quantile kernel_sorted 0.9 -. quantile kernel_sorted 0.1) /. kp50 in
  Printf.printf
    "# servebench workload=%s seed=%d rounds=%d setups=%d flush=fsync=false \
     (every write is appended to the WAL, never fsynced)\n"
    wl.name !seed nrounds !setups;
  print_endline
    ("counters "
    ^ W.to_string (W.Obj (first @ [ ("top_heap_words", W.Int !heap_words) ])));
  let e2e norm =
    let get vals refs = if norm then normalise vals refs else vals in
    let lat k q = quantile (per_position ~rounds:nrounds (get samples.lat.(k) samples.lat_ref.(k))) q in
    [ metric "setup_s" "s" (p50 (get samples.setup samples.setup_ref));
      metric "ops_per_s" "1/s"
        (Fbuf.sum samples.chunk_n
        /. (Fbuf.sum (get samples.chunk_ms samples.chunk_ref) /. 1e3));
      metric "query_p50_ms" "ms" (lat 0 0.5);
      metric "query_p90_ms" "ms" (lat 0 0.9);
      metric "models_p50_ms" "ms" (lat 1 0.5);
      metric "models_p90_ms" "ms" (lat 1 0.9);
      metric "write_p50_ms" "ms" (lat 2 0.5);
      metric "write_p90_ms" "ms" (lat 2 0.9);
      metric "heap_peak_mb" "MB"
        (float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576.) ]
  in
  let drift =
    W.Obj
      [ ("ref_nominal_ms", W.Float ref_nominal_ms);
        ("ref_kernel_ms_p50", W.Float kp50);
        ("ref_kernel_spread", W.Float kspread);
        ("samples",
         ints
           (List.map (fun c -> (cls_name c, samples.lat.(cls_index c).Fbuf.n))
              [ Query; Models; Write ]));
        ("raw", W.Obj (e2e false));
        ("normalised", W.Obj (e2e true)) ]
  in
  print_endline ("drift " ^ W.to_string drift);
  let metrics =
    match tr with
    | None -> e2e true
    | Some tr ->
      (* counts come from the first round's deterministic block *)
      let field name = function
        | W.Obj l -> List.assoc_opt name l
        | _ -> None
      in
      let num name j =
        match field name j with
        | Some (W.Int v) -> float_of_int v
        | Some (W.Float f) -> f
        | _ -> 0.
      in
      let top = W.Obj first in
      let block name = Option.value ~default:(W.Obj []) (field name top) in
      let sess = block "session" and gc = block "gc" in
      let hits = num "hits" sess and misses = num "misses" sess in
      let searches = num "searches" (block "search") in
      let per_search x = if searches = 0. then 0. else x /. searches in
      [ metric "wire.decode_us_p50" "us" (p50 tr.decode_us);
        metric "wire.encode_us_p50" "us" (p50 tr.encode_us);
        metric "wire.bytes_out_per_op" "bytes"
          (num "bytes_out" top /. num "requests" top);
        metric "engine.query_ms_p50" "ms" (p50 tr.engine_ms.(0));
        metric "engine.models_ms_p50" "ms" (p50 tr.engine_ms.(1));
        metric "engine.write_ms_p50" "ms" (p50 tr.engine_ms.(2));
        metric "session.hit_rate" "ratio"
          (if hits +. misses = 0. then 0. else hits /. (hits +. misses));
        metric "session.misses" "count" misses;
        metric "session.repairs" "count" (num "repairs" sess);
        metric "session.fallbacks" "count" (num "fallbacks" sess);
        metric "session.evictions" "count" (num "evictions" sess);
        metric "session.kept" "count" (num "kept" sess);
        metric "store.copy_ms" "ms" (p50 tr.copy_ms);
        metric "persist.append_us_p50" "us" (1e3 *. p50 tr.append_ms);
        metric "persist.bytes_per_write" "bytes" (num "wal_bytes_per_write" top);
        metric "inc.reground_ms" "ms" (p50 tr.reground_ms);
        metric "inc.repair_ms" "ms" (p50 tr.repair_ms);
        metric "ground.ms_per_miss" "ms" (mean tr.ground_ms);
        metric "ground.atoms" "count" (mean tr.gop_atoms);
        metric "ground.rules" "count" (mean tr.gop_rules);
        metric "vfix.lfp_ms" "ms" (p50 tr.lfp_ms);
        metric "flat.compile_ms" "ms" (p50 tr.compile_ms);
        metric "flat.compiles" "count" (num "compiles" (block "flat"));
        metric "flat.cache_hits" "count" (num "cache_hits" (block "flat"));
        metric "search.pruned_ms" "ms" (p50 tr.pruned_ms);
        metric "search.kernel_ms" "ms" (p50 tr.kernel_ms);
        metric "search.nodes" "count" (per_search (num "nodes" (block "search")));
        metric "search.propagations" "count"
          (per_search (num "propagations" (block "kernel")));
        metric "gc.minor_words_per_op" "words" (num "minor_words_per_op" gc);
        metric "gc.major_words_per_op" "words" (num "major_words_per_op" gc);
        metric "gc.major_collections" "count" (num "major_collections" gc);
        metric "unattributed.query_ms" "ms" (p50 tr.unattributed_ms.(0));
        metric "unattributed.models_ms" "ms" (p50 tr.unattributed_ms.(1));
        metric "unattributed.write_ms" "ms" (p50 tr.unattributed_ms.(2));
        metric "ref.kernel_ms_p50" "ms" kp50;
        metric "ref.kernel_spread" "ratio" kspread ]
  in
  print_endline
    (W.to_string
       (W.Obj
          [ ("correct", W.Bool correct); ("attempted", W.Int !attempted);
            ("failed", W.Int !failed); ("metrics", W.Obj metrics) ]));
  exit (if correct then 0 else 1)
