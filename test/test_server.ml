(* The socket server end to end, in process: a daemon on an ephemeral
   TCP port, concurrent clients with per-request budgets (a tripped
   request gets a structured partial while the others complete), typed
   protocol errors on garbage, cache hits visible through [stats], and a
   clean drain. *)

module W = Server.Wire

let str_member k j =
  match W.member k j with Some (W.String s) -> Some s | _ -> None

let int_member k j =
  match W.member k j with Some (W.Int n) -> Some n | _ -> None

let status j = Option.value ~default:"?" (str_member "status" j)

(* Enough atoms that grounding alone outruns a 1-step budget. *)
let src =
  "component base { p(1). p(2). p(3). q(X) :- p(X), not r(X). \
   r(X) :- p(X), not q(X). }\n\
   component leaf extends base { -r(1). }"

let with_daemon f =
  let d =
    Server.Daemon.create
      { Server.Daemon.address = `Tcp ("127.0.0.1", 0);
        workers = 4;
        parallel = `Threads;
        queue = 64;
        caps = { Server.Engine.timeout = Some 10.; steps = None };
        persist = None;
        replicate_on = None;
        sync = None
      }
  in
  let server = Thread.create (fun () -> Server.Daemon.serve d) () in
  let finally () =
    Server.Daemon.stop d;
    Thread.join server
  in
  Fun.protect ~finally (fun () -> f (Server.Daemon.address d))

let connect_exn address =
  match Server.Client.connect ~retry:5. address with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let request_exn c line =
  match Server.Client.request_line c line with
  | Ok j -> j
  | Error e -> Alcotest.failf "request %s: %s" line e

let load_src c =
  let j =
    request_exn c (W.to_string (W.Obj [ ("op", W.String "load");
                                        ("src", W.String src) ]))
  in
  Alcotest.(check string) "load ok" "ok" (status j)

let test_concurrent_budgets () =
  with_daemon @@ fun address ->
  let setup = connect_exn address in
  load_src setup;
  Server.Client.close setup;
  (* Five concurrent clients: four well-funded (two distinct cached
     keys), one with a 1-step budget on a key nobody else warms — it
     must come back as a structured partial while the rest complete. *)
  let results = Array.make 5 (Error "not run") in
  let client i work =
    Thread.create
      (fun () ->
        results.(i) <-
          (match Server.Client.connect ~retry:5. address with
          | Error _ as e -> e
          | Ok c ->
            let r =
              try Ok (List.map (request_exn c) work)
              with e -> Error (Printexc.to_string e)
            in
            Server.Client.close c;
            r))
      ()
  in
  let stable = {|{"op":"models","obj":"leaf","kind":"stable"}|} in
  let query = {|{"op":"query","obj":"leaf","lit":"q(1)"}|} in
  let tripped =
    {|{"op":"models","obj":"leaf","kind":"assumption-free","max_steps":1,"id":99}|}
  in
  let threads =
    [ client 0 [ stable; query; stable ];
      client 1 [ query; stable ];
      client 2 [ stable; stable ];
      client 3 [ query; query ];
      client 4 [ tripped ]
    ]
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | Error e -> Alcotest.failf "client %d failed: %s" i e
      | Ok responses ->
        List.iter
          (fun j ->
            let expected = if i = 4 then "partial" else "ok" in
            Alcotest.(check string)
              (Printf.sprintf "client %d status" i)
              expected (status j))
          responses)
    results;
  (match results.(4) with
  | Ok [ j ] ->
    Alcotest.(check (option string)) "trip reason" (Some "steps")
      (str_member "reason" j);
    Alcotest.(check (option int)) "id echoed" (Some 99) (int_member "id" j)
  | _ -> Alcotest.fail "tripped client: expected exactly one response");
  (* the repeated stable-models key hit the cache at least once *)
  let c = connect_exn address in
  let stats = request_exn c {|{"op":"stats"}|} in
  Server.Client.close c;
  let cache = Option.get (W.member "cache" stats) in
  let hits = Option.value ~default:0 (int_member "hits" cache) in
  Alcotest.(check bool)
    (Printf.sprintf "cache hits > 0 (got %d)" hits)
    true (hits > 0)

let test_protocol_errors_inline () =
  with_daemon @@ fun address ->
  let c = connect_exn address in
  load_src c;
  let expect_error line =
    let j = request_exn c line in
    Alcotest.(check string) ("error for " ^ line) "error" (status j);
    let kind =
      Option.bind (W.member "error" j) (fun e -> str_member "kind" e)
    in
    Alcotest.(check (option string)) ("proto kind for " ^ line)
      (Some "proto") kind
  in
  expect_error "this is not json";
  expect_error {|{"op": "models"|};
  expect_error {|{"op": "teleport"}|};
  (* the connection survives bad input: a real request still works *)
  let j = request_exn c {|{"op":"query","obj":"leaf","lit":"p(1)"}|} in
  Alcotest.(check string) "still serving" "ok" (status j);
  Alcotest.(check (option string)) "value" (Some "true") (str_member "value" j);
  (* unknown object is an input error, not a protocol error *)
  let j = request_exn c {|{"op":"query","obj":"ghost","lit":"p(1)"}|} in
  Alcotest.(check string) "unknown object" "error" (status j);
  Server.Client.close c

let test_mutation_resets_cache () =
  with_daemon @@ fun address ->
  let c = connect_exn address in
  load_src c;
  let models = {|{"op":"models","obj":"leaf","kind":"stable"}|} in
  ignore (request_exn c models);
  ignore (request_exn c models);
  let hits_of () =
    let stats = request_exn c {|{"op":"stats"}|} in
    let cache = Option.get (W.member "cache" stats) in
    ( Option.value ~default:(-1) (int_member "hits" cache),
      Option.value ~default:(-1) (int_member "misses" cache) )
  in
  let hits, misses = hits_of () in
  Alcotest.(check int) "one hit before mutation" 1 hits;
  let j =
    request_exn c {|{"op":"add_rule","obj":"leaf","rule":"-r(2)."}|}
  in
  Alcotest.(check string) "add_rule ok" "ok" (status j);
  ignore (request_exn c models);
  let hits', misses' = hits_of () in
  Alcotest.(check int) "mutation restores miss" (misses + 1) misses';
  Alcotest.(check int) "no new hit" hits hits';
  Server.Client.close c

let test_oversized_frame_multichunk () =
  with_daemon @@ fun address ->
  let port = match address with `Tcp (_, p) -> p | `Unix _ -> assert false in
  (* a raw socket, so the frame can be dribbled in many small writes:
     the reader's discard state machine must emit exactly one oversized
     error for the whole frame, then serve the next line normally *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let write_all s =
    let b = Bytes.of_string s in
    let sent = ref 0 in
    while !sent < Bytes.length b do
      sent := !sent + Unix.write fd b !sent (Bytes.length b - !sent)
    done
  in
  (* 1.5 MiB against the 1 MiB limit, in 64 KiB chunks — the limit is
     crossed mid-stream, several reads after the frame began *)
  let chunk = String.make 65536 'a' in
  for _ = 1 to 24 do
    write_all chunk
  done;
  write_all "\n";
  write_all "{\"op\":\"version\"}\n";
  let first =
    match W.parse (input_line ic) with
    | Ok j -> j
    | Error e -> Alcotest.failf "unparsable response: %s" (W.error_to_string e)
  in
  Alcotest.(check string) "oversized frame is an error" "error" (status first);
  Alcotest.(check (option string)) "and a proto error" (Some "proto")
    (Option.bind (W.member "error" first) (str_member "kind"));
  let second =
    match W.parse (input_line ic) with
    | Ok j -> j
    | Error e -> Alcotest.failf "unparsable response: %s" (W.error_to_string e)
  in
  (* exactly one error for the oversized frame: the next response line
     answers the next request *)
  Alcotest.(check string) "connection still serves" "ok" (status second);
  Alcotest.(check bool) "version reported" true
    (str_member "version" second <> None);
  Unix.close fd

let test_batch_verb () =
  with_daemon @@ fun address ->
  let c = connect_exn address in
  load_src c;
  let item fields = W.Obj fields in
  match
    Server.Client.request_batch ~id:7 c
      [ item
          [ ("op", W.String "query"); ("obj", W.String "leaf");
            ("lit", W.String "p(1)"); ("id", W.Int 1)
          ];
        item [ ("op", W.String "models"); ("obj", W.String "leaf") ];
        item [ ("op", W.String "query"); ("obj", W.Int 3) ];
        item
          [ ("op", W.String "add_rule"); ("obj", W.String "leaf");
            ("rule", W.String "-r(3).")
          ];
        item [ ("op", W.String "shutdown") ]
      ]
  with
  | Error e -> Alcotest.failf "batch: %s" e
  | Ok responses ->
    Alcotest.(check int) "five responses" 5 (List.length responses);
    (match responses with
    | [ q; ms; bad; wr; sh ] ->
      Alcotest.(check string) "query ok" "ok" (status q);
      Alcotest.(check (option int)) "item id echoed" (Some 1)
        (int_member "id" q);
      Alcotest.(check (option string)) "query value" (Some "true")
        (str_member "value" q);
      Alcotest.(check string) "models ok" "ok" (status ms);
      (* the malformed item fails alone, typed, without poisoning the
         frame *)
      Alcotest.(check string) "bad item errors" "error" (status bad);
      Alcotest.(check (option string)) "bad item is proto" (Some "proto")
        (Option.bind (W.member "error" bad) (str_member "kind"));
      (* shutdown cannot ride in a batch: the server must stay up *)
      Alcotest.(check string) "shutdown rejected" "error" (status sh);
      Alcotest.(check string) "write ok" "ok" (status wr)
    | _ -> Alcotest.fail "unreachable");
    (* the batched write really applied, and the server survived the
       batched shutdown attempt *)
    let j = request_exn c {|{"op":"query","obj":"leaf","lit":"r(3)"}|} in
    Alcotest.(check (option string)) "batched write visible" (Some "false")
      (str_member "value" j);
    Server.Client.close c

(* 64 concurrent clients, each collapsing 16 reads into one batch
   frame, against a single sequential unbatched client as the baseline:
   aggregate throughput must beat the baseline — on any host, because
   batching amortises 16 round-trips into one. *)
let test_many_clients_smoke () =
  with_daemon @@ fun address ->
  let setup = connect_exn address in
  load_src setup;
  (* warm the snapshot cache so every timed request is a pure read *)
  ignore (request_exn setup {|{"op":"query","obj":"leaf","lit":"q(1)"}|});
  let clients = 64 and per_client = 64 in
  let query_item =
    W.Obj
      [ ("op", W.String "query"); ("obj", W.String "leaf");
        ("lit", W.String "q(1)")
      ]
  in
  (* baseline: one client, one request per round-trip *)
  let baseline_n = 128 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to baseline_n do
    let j = request_exn setup {|{"op":"query","obj":"leaf","lit":"q(1)"}|} in
    Alcotest.(check string) "baseline ok" "ok" (status j)
  done;
  let baseline_qps =
    float_of_int baseline_n /. (Unix.gettimeofday () -. t0 +. 1e-9)
  in
  Server.Client.close setup;
  (* every client connects before the clock starts (the baseline's
     connection setup is untimed too); a barrier releases them at once *)
  let errors = Array.make clients None in
  let gate = Mutex.create () in
  let turn = Condition.create () in
  let ready = ref 0 and go = ref false in
  let spawn i =
    Thread.create
      (fun () ->
        let conn = Server.Client.connect ~retry:10. address in
        Mutex.lock gate;
        incr ready;
        Condition.broadcast turn;
        while not !go do
          Condition.wait turn gate
        done;
        Mutex.unlock gate;
        match conn with
        | Error e -> errors.(i) <- Some ("connect: " ^ e)
        | Ok c ->
          (match
             Server.Client.request_batch c
               (List.init per_client (fun _ -> query_item))
           with
          | Error e -> errors.(i) <- Some e
          | Ok responses ->
            if List.length responses <> per_client then
              errors.(i) <- Some "short batch reply"
            else
              List.iter
                (fun j ->
                  if status j <> "ok" then
                    errors.(i) <- Some ("item status " ^ status j))
                responses);
          Server.Client.close c)
      ()
  in
  let threads = List.init clients spawn in
  Mutex.lock gate;
  while !ready < clients do
    Condition.wait turn gate
  done;
  let t1 = Unix.gettimeofday () in
  go := true;
  Condition.broadcast turn;
  Mutex.unlock gate;
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t1 +. 1e-9 in
  Array.iteri
    (fun i e ->
      match e with
      | Some msg -> Alcotest.failf "client %d: %s" i msg
      | None -> ())
    errors;
  let aggregate_qps = float_of_int (clients * per_client) /. elapsed in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate %.0f qps beats single-client %.0f qps"
       aggregate_qps baseline_qps)
    true
    (aggregate_qps > baseline_qps)

let test_shutdown_drains () =
  with_daemon @@ fun address ->
  let c = connect_exn address in
  load_src c;
  let j = request_exn c {|{"op":"shutdown"}|} in
  Alcotest.(check string) "shutdown ok" "ok" (status j);
  (* the daemon drains on its own; with_daemon's stop is then a no-op *)
  Server.Client.close c

let suite =
  [ Alcotest.test_case "concurrent clients with budgets" `Quick
      test_concurrent_budgets;
    Alcotest.test_case "typed protocol errors inline" `Quick
      test_protocol_errors_inline;
    Alcotest.test_case "mutation resets the cache" `Quick
      test_mutation_resets_cache;
    Alcotest.test_case "oversized frame across read chunks" `Quick
      test_oversized_frame_multichunk;
    Alcotest.test_case "batch verb end to end" `Quick test_batch_verb;
    Alcotest.test_case "64-client batched smoke" `Quick
      test_many_clients_smoke;
    Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains
  ]
