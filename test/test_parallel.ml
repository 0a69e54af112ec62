(* The parallel-serving machinery, attacked directly: pinned session
   snapshots must be immutable while writers churn the master store,
   disjoint-object writers must run their parse phase concurrently (and
   the writers_peak gauge must prove the overlap), and read verbs must
   never need the engine's io lock. *)

module W = Server.Wire
module Engine = Server.Engine
module M = Governor.Metrics

(* ------------------------------------------------------------------ *)
(* Snapshots: readers never see a torn store                           *)
(* ------------------------------------------------------------------ *)

(* One writer appends facts m(1), m(2), ... one mutation at a time;
   reader domains repeatedly compute the least model from a pinned
   snapshot.  Because each fact lands in its own published version, the
   set of m(_) facts a reader observes must be a {e prefix} {m(1)..m(j)}
   — any gap means the reader computed against a half-mutated store.
   Versions must also be monotone per reader. *)
let test_snapshot_prefix () =
  let s = Kb.Session.create () in
  Kb.Session.define s "acc" (Helpers.rules "seed.");
  let total = 40 in
  let lit i = Lang.Parser.parse_literal (Printf.sprintf "m(%d)" i) in
  let reader () =
    let violations = ref [] in
    let last_version = ref (-1) in
    let rec loop () =
      let v = Kb.Session.version s in
      if v < !last_version then
        violations := Printf.sprintf "version went backwards: %d -> %d"
                        !last_version v :: !violations;
      last_version := max !last_version v;
      let model = Kb.Session.least_model s ~obj:"acc" in
      let seen =
        List.filter
          (fun i -> Logic.Interp.value_lit model (lit i) = Logic.Interp.True)
          (List.init total (fun i -> i + 1))
      in
      let j = List.length seen in
      if seen <> List.init j (fun i -> i + 1) then
        violations :=
          Printf.sprintf "torn snapshot: saw {%s}"
            (String.concat "," (List.map string_of_int seen)) :: !violations;
      if j < total then loop () else !violations
    in
    loop ()
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  for i = 1 to total do
    Kb.Session.add_rule s ~obj:"acc"
      (Logic.Rule.fact (Lang.Parser.parse_literal (Printf.sprintf "m(%d)" i)))
  done;
  let violations = List.concat_map Domain.join readers in
  (match violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%d violation(s), first: %s" (List.length violations) v);
  let c = Kb.Session.counters s in
  Alcotest.(check int) "one publish per mutation" (total + 1) c.invalidations

(* new_version churn: every published view must be a complete copy —
   version lists only ever grow, and the base object keeps answering. *)
let test_new_version_churn () =
  let s = Kb.Session.create () in
  Kb.Session.define s "acc" (Helpers.rules "seed.");
  let rounds = 30 in
  let reader () =
    let bad = ref [] in
    let last = ref 1 in
    let rec loop () =
      let vs = List.length (Kb.Session.versions s "acc") in
      if vs < !last then
        bad := Printf.sprintf "version list shrank: %d -> %d" !last vs :: !bad;
      last := max !last vs;
      (match Kb.Session.query s ~obj:"acc" (Helpers.lit "seed") with
      | Logic.Interp.True -> ()
      | v ->
        bad := ("base fact lost: " ^
                (match v with Logic.Interp.False -> "false" | _ -> "undefined"))
               :: !bad);
      if vs < rounds + 1 then loop () else !bad
    in
    loop ()
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  for _ = 1 to rounds do
    ignore (Kb.Session.new_version s "acc" : string)
  done;
  match List.concat_map Domain.join readers with
  | [] -> ()
  | v :: _ -> Alcotest.failf "churn violation: %s" v

(* Stable models while a writer writes: the writes alternate between
   ones that leave every residual part alone (a rule the least model
   decides) and ones that change a part, so readers list models from
   carried part lists, fresh searches and mixes of both.  A reader does
   not see which version it pinned, only that it lies between the
   versions read before and after the call, so its answer must equal
   the scratch answer of one of those versions, at the limit it
   asked. *)
let test_models_while_writing () =
  let src =
    "component k0 { pa(X) :- ent(X). pb(X) :- ent(X). }\n\
     component k1 extends k0 { -pa(X) :- pb(X). -pb(X) :- pa(X). }\n\
     component o extends k1 { ent(e1). ent(e2). ent(e3). }"
  in
  let writes =
    List.init 24 (fun i ->
        let text =
          match i mod 4 with
          | 0 -> Printf.sprintf "w%d(X) :- ent(X)." (i / 4)
          | 1 | 2 -> "-pa(e2)."
          | _ -> Printf.sprintf "-pb(e%d) :- w%d(e1)." ((i / 4 mod 3) + 1) (i / 4)
        in
        (i mod 4 <> 2, Lang.Parser.parse_rule text))
  in
  let limits = [| None; Some 0; Some 1; Some 2; Some 3; Some 5 |] in
  (* the scratch answers of every version: 1 after the load, then one
     per write *)
  let scratch = Kb.Store.create () in
  Kb.Store.load scratch src;
  let answers () =
    let g = Helpers.Scratch.gop scratch ~obj:"o" in
    Array.map
      (fun limit ->
        List.map Logic.Interp.to_string
          (Ordered.Budget.value (Solve.Kernel.stable_models ?limit g)))
      limits
  in
  let loaded = answers () in
  let by_version =
    Array.of_list
      ([||] :: loaded
      :: List.map
           (fun (add, r) ->
             if add then Kb.Store.add_rule scratch ~obj:"o" r
             else ignore (Kb.Store.remove_rule scratch ~obj:"o" r : bool);
             answers ())
           writes)
  in
  let last = Array.length by_version - 1 in
  let s = Kb.Session.create () in
  Kb.Session.load s src;
  let reader () =
    let bad = ref [] and k = ref 0 in
    let rec loop () =
      let li = !k mod Array.length limits in
      incr k;
      let v0 = Kb.Session.version s in
      let got =
        List.map Logic.Interp.to_string
          (Ordered.Budget.value
             (Kb.Session.stable_models ?limit:limits.(li) s ~obj:"o"))
      in
      let v1 = Kb.Session.version s in
      let rec pinned v = v <= v1 && (by_version.(v).(li) = got || pinned (v + 1)) in
      if not (pinned v0) then
        bad :=
          Printf.sprintf "versions %d..%d: got [%s]" v0 v1 (String.concat " " got)
          :: !bad;
      if v0 < last then loop () else !bad
    in
    loop ()
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  List.iter
    (fun (add, r) ->
      if add then Kb.Session.add_rule s ~obj:"o" r
      else ignore (Kb.Session.remove_rule s ~obj:"o" r : bool);
      Unix.sleepf 0.001)
    writes;
  match List.concat_map Domain.join readers with
  | [] -> ()
  | v :: _ as all -> Alcotest.failf "%d wrong answer(s), first: %s" (List.length all) v

(* ------------------------------------------------------------------ *)
(* Writers in flight                                                   *)
(* ------------------------------------------------------------------ *)

(* Two writers on distinct objects must both get past their parse phase
   while the io lock is unavailable: hold the engine's io lock from the
   test, fire two defines, and wait for the writers gauge to prove both
   are in flight at once.  Deterministic — the writers cannot finish
   while we hold the lock, and nothing before it blocks them. *)
let test_disjoint_writers_overlap () =
  let e = Engine.create () in
  let m = Engine.metrics e in
  let a = "obj0" and b = "obj1" in
  let spawn name =
    Thread.create
      (fun () ->
        ignore
          (Engine.handle_line e
             (Printf.sprintf {|{"op":"define","name":"%s","rules":"p."}|} name)
            : W.json))
      ()
  in
  let peak = ref 0 in
  Engine.exclusively e (fun () ->
      let t1 = spawn a and t2 = spawn b in
      let deadline = Unix.gettimeofday () +. 5. in
      while M.get m "writers_peak" < 2 && Unix.gettimeofday () < deadline do
        Thread.delay 0.002
      done;
      peak := M.get m "writers_peak";
      (* release the io lock by returning; the writers then finish *)
      ignore (t1, t2));
  (* both writers complete once the io lock is free *)
  let deadline = Unix.gettimeofday () +. 5. in
  while M.get m "ok" < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  Alcotest.(check bool)
    (Printf.sprintf "writers_peak >= 2 (got %d)" !peak)
    true (!peak >= 2);
  Alcotest.(check int) "both defines ok" 2 (M.get m "ok");
  Alcotest.(check bool) "both objects exist" true
    (List.mem a (Kb.Session.objects (Engine.session e))
    && List.mem b (Kb.Session.objects (Engine.session e)))

(* ------------------------------------------------------------------ *)
(* Reads are lock-free                                                 *)
(* ------------------------------------------------------------------ *)

(* A read verb served to completion while the io lock is held from
   another thread: before the snapshot rework this deadlocked, because
   every verb serialized on that one mutex. *)
let test_reads_bypass_io_lock () =
  let e = Engine.create () in
  ignore
    (Engine.handle_line e
       {|{"op":"define","name":"kb","rules":"p. q :- p."}|}
      : W.json);
  Engine.exclusively e (fun () ->
      let result = ref None in
      let th =
        Thread.create
          (fun () ->
            result :=
              Some (Engine.handle_line e {|{"op":"query","obj":"kb","lit":"q"}|}))
          ()
      in
      (* joining inside the critical section is the point: the read must
         finish while we still hold the lock *)
      Thread.join th;
      match !result with
      | Some j ->
        (match W.member "status" j, W.member "value" j with
        | Some (W.String "ok"), Some (W.String "true") -> ()
        | _ -> Alcotest.failf "read under io lock: %s" (W.to_string j))
      | None -> Alcotest.fail "read did not run")

(* Batched reads riding one frame take the same lock-free path. *)
let test_batch_reads_bypass_io_lock () =
  let e = Engine.create () in
  ignore
    (Engine.handle_line e {|{"op":"define","name":"kb","rules":"p."}|}
      : W.json);
  Engine.exclusively e (fun () ->
      let result = ref None in
      let th =
        Thread.create
          (fun () ->
            result :=
              Some
                (Engine.handle_line e
                   {|{"op":"batch","requests":[{"op":"query","obj":"kb","lit":"p"},{"op":"stats"}]}|}))
          ()
      in
      Thread.join th;
      match !result with
      | Some j -> (
        match W.member "status" j, W.member "count" j with
        | Some (W.String "ok"), Some (W.Int 2) -> ()
        | _ -> Alcotest.failf "batch under io lock: %s" (W.to_string j))
      | None -> Alcotest.fail "batch did not run")

let suite =
  [ Alcotest.test_case "pinned snapshots are prefixes" `Quick
      test_snapshot_prefix;
    Alcotest.test_case "new_version churn keeps views whole" `Quick
      test_new_version_churn;
    Alcotest.test_case "models while a writer writes" `Quick
      test_models_while_writing;
    Alcotest.test_case "disjoint writers overlap (writers_peak)" `Quick
      test_disjoint_writers_overlap;
    Alcotest.test_case "reads bypass the io lock" `Quick
      test_reads_bypass_io_lock;
    Alcotest.test_case "batched reads bypass the io lock" `Quick
      test_batch_reads_bypass_io_lock
  ]
