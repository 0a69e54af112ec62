(* The wire protocol codec (Server.Wire): encode/parse round-trips,
   request decoding, and the robustness fuzz — random bytes, mutated
   requests, truncated frames and oversized lines must come back as
   typed errors, never as an escaping exception.

   Like test_fuzz.ml, the fuzz inputs come from a self-contained LCG so
   runs are reproducible and do not consume the qcheck seed; FUZZ_ITERS
   scales the input count (raised by `make fuzz`). *)

module W = Server.Wire

let iters =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

let state = ref 0x2545F4914F6CDD1D

let rand bound =
  state := (!state * 1664525) + 1013904223;
  (!state lsr 9) mod bound

(* ------------------------------------------------------------------ *)
(* Round-trips                                                         *)
(* ------------------------------------------------------------------ *)

let rec gen_json depth =
  match if depth <= 0 then rand 5 else rand 7 with
  | 0 -> W.Null
  | 1 -> W.Bool (rand 2 = 0)
  | 2 -> W.Int (rand 2_000_000 - 1_000_000)
  | 3 -> W.String (gen_string ())
  | 4 -> W.Float (float_of_int (rand 1_000_000) /. 64.)
  | 5 -> W.List (List.init (rand 4) (fun _ -> gen_json (depth - 1)))
  | _ ->
    W.Obj
      (List.mapi
         (fun i v -> (Printf.sprintf "k%d_%s" i (gen_string ()), v))
         (List.init (rand 4) (fun _ -> gen_json (depth - 1))))

and gen_string () =
  (* include every escaping regime: quotes, backslashes, control
     characters, high bytes (valid UTF-8 fragments or not) *)
  let spice = "ab\"\\\n\t\r\b\012{}[]:,\x01\x1f\xc3\xa9" in
  String.init (rand 12) (fun _ -> spice.[rand (String.length spice)])

let test_roundtrip () =
  for _ = 1 to 500 do
    let v = gen_json 4 in
    let s = W.to_string v in
    (match String.index_opt s '\n' with
    | Some _ -> Alcotest.failf "encoded document contains a newline: %s" s
    | None -> ());
    match W.parse s with
    | Ok v' ->
      if v <> v' then
        Alcotest.failf "round-trip changed the document: %s" s
    | Error e ->
      Alcotest.failf "encoder emitted unparsable JSON %s (%s)" s
        (W.error_to_string e)
  done

let test_parse_values () =
  let ok s v =
    match W.parse s with
    | Ok v' -> Alcotest.(check bool) s true (v = v')
    | Error e -> Alcotest.failf "%s rejected: %s" s (W.error_to_string e)
  in
  ok "null" W.Null;
  ok " [1, -2, 3.5e2] " (W.List [ W.Int 1; W.Int (-2); W.Float 350. ]);
  ok {|{"a": "b\u00e9c", "d": [true, false]}|}
    (W.Obj
       [ ("a", W.String "b\xc3\xa9c");
         ("d", W.List [ W.Bool true; W.Bool false ])
       ]);
  ok {|"\ud83d\ude00"|} (W.String "\xf0\x9f\x98\x80");
  let err s =
    match W.parse s with
    | Ok _ -> Alcotest.failf "accepted malformed %S" s
    | Error (W.Syntax _) -> ()
    | Error e ->
      Alcotest.failf "wrong error class for %S: %s" s (W.error_to_string e)
  in
  err "";
  err "{";
  err "[1,]";
  err "{\"a\" 1}";
  err "\"\\ud800\"" (* lone surrogate *);
  err "01" (* leading zero then trailing garbage *);
  err "truely";
  err "\"unterminated";
  err (String.make 400 '[' ^ String.make 400 ']') (* nesting bomb *)

let test_oversized () =
  let line = "\"" ^ String.make (W.default_max_len + 8) 'a' ^ "\"" in
  (match W.parse line with
  | Error (W.Oversized { limit; _ }) ->
    Alcotest.(check int) "limit reported" W.default_max_len limit
  | Ok _ | Error _ -> Alcotest.fail "oversized line not rejected as such");
  match W.parse ~max_len:8 "{\"op\": \"stats\"}" with
  | Ok _ -> Alcotest.fail "8-byte limit not enforced"
  | Error (W.Oversized _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (W.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Request decoding                                                    *)
(* ------------------------------------------------------------------ *)

let test_decode_requests () =
  (* revision 8: one engine per question, the selectors reduced to the
     value naming it *)
  Alcotest.(check int) "protocol revision" 8 W.protocol_revision;
  Alcotest.(check string) "package version" "1.8.0" W.package_version;
  (match W.decode_request {|{"op":"query","obj":"c1","lit":"p","id":7}|} with
  | Ok
      { id = Some 7;
        verb = W.Query { obj = "c1"; lit = "p"; prefer = false };
        _
      } -> ()
  | Ok _ -> Alcotest.fail "query decoded wrong"
  | Error e -> Alcotest.failf "query rejected: %s" (W.error_to_string e));
  (match
     W.decode_request
       {|{"op":"query","obj":"c1","lit":"p","prefer":"compiled",
          "search":"compiled"}|}
   with
  | Ok { verb = W.Query { prefer = true; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "query search decoded wrong"
  | Error e ->
    Alcotest.failf "query search rejected: %s" (W.error_to_string e));
  (* a revision-7 client naming the kernel on a plain query *)
  (match
     W.decode_request
       {|{"op":"query","obj":"c1","lit":"p","search":"compiled",
          "engine":"compiled"}|}
   with
  | Ok { verb = W.Query { prefer = false; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "query prefer decoded wrong"
  | Error e ->
    Alcotest.failf "query search/engine rejected: %s" (W.error_to_string e));
  (match
     W.decode_request
       {|{"op":"models","obj":"o","prefer":"compiled","limit":2}|}
   with
  | Ok
      { verb =
          W.Models
            { kind = `Stable; limit = Some 2; prefer = true; _ };
        _
      } -> ()
  | Ok _ -> Alcotest.fail "models prefer decoded wrong"
  | Error e ->
    Alcotest.failf "models prefer rejected: %s" (W.error_to_string e));
  (match
     W.decode_request {|{"op":"set_preference","rule":"a","over":"b"}|}
   with
  | Ok { verb = W.Set_preference { rule = "a"; over = "b" }; _ } -> ()
  | Ok _ -> Alcotest.fail "set_preference decoded wrong"
  | Error e ->
    Alcotest.failf "set_preference rejected: %s" (W.error_to_string e));
  (match
     W.decode_request {|{"op":"clear_preference","rule":"a","over":"b"}|}
   with
  | Ok { verb = W.Clear_preference { rule = "a"; over = "b" }; _ } -> ()
  | Ok _ -> Alcotest.fail "clear_preference decoded wrong"
  | Error e ->
    Alcotest.failf "clear_preference rejected: %s" (W.error_to_string e));
  (match
     W.decode_request
       {|{"op":"models","obj":"o","kind":"assumption-free","limit":2,
          "engine":"compiled","timeout_ms":50,"max_steps":100}|}
   with
  | Ok
      { budget = { timeout_ms = Some 50; max_steps = Some 100 };
        verb = W.Models { kind = `Af; limit = Some 2; prefer = false; _ };
        _
      } -> ()
  | Ok _ -> Alcotest.fail "models decoded wrong"
  | Error e -> Alcotest.failf "models rejected: %s" (W.error_to_string e));
  (* the revision-7 "search" field and its legacy "engine" alias still
     decode when they name the one engine *)
  (match
     W.decode_request {|{"op":"models","obj":"o","search":"compiled"}|}
   with
  | Ok { verb = W.Models { prefer = false; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "models search decoded wrong"
  | Error e ->
    Alcotest.failf "models search rejected: %s" (W.error_to_string e));
  (match
     W.decode_request
       {|{"op":"models","obj":"o","search":"compiled","engine":"compiled",
          "prefer":"compiled"}|}
   with
  | Ok { verb = W.Models { prefer = true; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "models search+engine decoded wrong"
  | Error e ->
    Alcotest.failf "models search+engine rejected: %s" (W.error_to_string e));
  let err s =
    match W.decode_request s with
    | Ok _ -> Alcotest.failf "accepted bad request %s" s
    | Error (W.Request _) -> ()
    | Error e ->
      Alcotest.failf "wrong error class for %s: %s" s (W.error_to_string e)
  in
  (* the replication verbs *)
  (match
     W.decode_request
       {|{"op":"hello","seq":12,"protocol":5,"epoch":2,"rid":"r1"}|}
   with
  | Ok
      { verb =
          W.Hello
            { seq = 12; protocol = 5; epoch = 2; rid = Some "r1";
              addr = None
            };
        _
      } -> ()
  | Ok _ -> Alcotest.fail "hello decoded wrong"
  | Error e -> Alcotest.failf "hello rejected: %s" (W.error_to_string e));
  (match
     W.decode_request
       {|{"op":"pull","from":7,"max":64,"epoch":1,"rid":"r1","durable":5}|}
   with
  | Ok
      { verb =
          W.Pull
            { from_seq = 7; max = Some 64; epoch = 1; rid = Some "r1";
              durable = Some 5; addr = None
            };
        _
      } -> ()
  | Ok _ -> Alcotest.fail "pull decoded wrong"
  | Error e -> Alcotest.failf "pull rejected: %s" (W.error_to_string e));
  (match W.decode_request {|{"op":"pull","from":0}|} with
  | Ok
      { verb =
          W.Pull
            { from_seq = 0; max = None; epoch = 0; rid = None;
              durable = None; addr = None
            };
        _
      } -> ()
  | Ok _ -> Alcotest.fail "pull without max decoded wrong"
  | Error e -> Alcotest.failf "pull rejected: %s" (W.error_to_string e));
  (match
     W.decode_request
       {|{"op":"pull","from":2,"rid":"r2","addr":"127.0.0.1:7001"}|}
   with
  | Ok { verb = W.Pull { addr = Some "127.0.0.1:7001"; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "pull addr decoded wrong"
  | Error e -> Alcotest.failf "pull addr rejected: %s" (W.error_to_string e));
  (match W.decode_request {|{"op":"fetch_snapshot"}|} with
  | Ok { verb = W.Fetch_snapshot { epoch = 0 }; _ } -> ()
  | Ok _ -> Alcotest.fail "fetch_snapshot decoded wrong"
  | Error e ->
    Alcotest.failf "fetch_snapshot rejected: %s" (W.error_to_string e));
  (match W.decode_request {|{"op":"promote","id":3}|} with
  | Ok { id = Some 3; verb = W.Promote; _ } -> ()
  | Ok _ -> Alcotest.fail "promote decoded wrong"
  | Error e -> Alcotest.failf "promote rejected: %s" (W.error_to_string e));
  (* the batch verb: items in order, per-item failures reified *)
  (match
     W.decode_request
       {|{"op":"batch","id":9,"requests":[
           {"op":"query","obj":"c1","lit":"p","id":1},
           {"op":"stats"},
           {"op":"query","obj":3},
           {"op":"shutdown"},
           {"op":"batch","requests":[{"op":"stats"}]},
           "not an object"]}|}
   with
  | Ok { id = Some 9; verb = W.Batch items; _ } -> (
    match items with
    | [ Ok { id = Some 1; verb = W.Query { obj = "c1"; lit = "p"; _ }; _ };
        Ok { verb = W.Stats; _ };
        Error _ (* obj not a string *);
        Error _ (* shutdown is not batchable *);
        Error _ (* nested batch *);
        Error _ (* item not an object *)
      ] -> ()
    | _ -> Alcotest.fail "batch items decoded wrong")
  | Ok _ -> Alcotest.fail "batch decoded wrong"
  | Error e -> Alcotest.failf "batch rejected: %s" (W.error_to_string e));
  (* whole-frame failures: shape, emptiness, size cap *)
  err {|{"op":"batch"}|} (* missing requests *);
  err {|{"op":"batch","requests":{}}|};
  err {|{"op":"batch","requests":[]}|};
  (let items =
     String.concat "," (List.init (W.max_batch + 1) (fun _ -> {|{"op":"stats"}|}))
   in
   err (Printf.sprintf {|{"op":"batch","requests":[%s]}|} items));
  err {|{"op":"teleport"}|};
  err {|{"op":"query","obj":"c1"}|} (* missing lit *);
  err {|{"op":"query","obj":3,"lit":"p"}|};
  err {|{"op":"models","obj":"o","kind":"total?"}|};
  err {|{"op":"models","obj":"o","prefer":"fastest"}|};
  err {|{"op":"models","obj":"o","kind":"assumption-free","prefer":"compiled"}|};
  err {|{"op":"set_preference","rule":"a"}|} (* missing over *);
  err {|{"op":"clear_preference","over":"b"}|} (* missing rule *);
  err {|{"op":"models","obj":"o","limit":-1}|};
  err {|{"op":"hello","seq":3}|} (* missing protocol *);
  err {|{"op":"hello","seq":-1,"protocol":3}|};
  err {|{"op":"pull"}|} (* missing from *);
  err {|{"op":"models","obj":"o","search":"fastest"}|};
  (* the engines revision 8 removed are unknown engines now *)
  err {|{"op":"models","obj":"o","search":"pruned"}|};
  err {|{"op":"models","obj":"o","search":"naive"}|};
  err {|{"op":"models","obj":"o","engine":"pruned"}|};
  err {|{"op":"models","obj":"o","engine":"naive"}|};
  err {|{"op":"models","obj":"o","search":"compiled","engine":"pruned"}|};
  err {|{"op":"models","obj":"o","prefer":"naive"}|};
  err {|{"op":"query","obj":"o","lit":"p","prefer":"naive"}|};
  err {|{"op":"query","obj":"o","lit":"p","search":"pruned"}|};
  err {|{"op":"stats","id":"seven"}|};
  err {|[1,2,3]|};
  err {|"stats"|}

(* ------------------------------------------------------------------ *)
(* Fuzz: the decoder is total                                          *)
(* ------------------------------------------------------------------ *)

let corpus =
  [ {|{"op":"load","src":"component main { p. q :- p. }"}|};
    {|{"op":"define","name":"x","isa":["a","b"],"rules":"p :- q."}|};
    {|{"op":"add_rule","obj":"x","rule":"p :- q."}|};
    {|{"op":"remove_rule","obj":"x","rule":"p :- q."}|};
    {|{"op":"new_version","name":"x"}|};
    {|{"op":"query","obj":"c1","lit":"fly(penguin)","timeout_ms":100}|};
    {|{"op":"models","obj":"c1","kind":"stable","limit":3,"engine":"compiled"}|};
    {|{"op":"models","obj":"c1","kind":"stable","search":"compiled"}|};
    {|{"op":"models","obj":"c1","prefer":"compiled","limit":3}|};
    {|{"op":"query","obj":"c1","lit":"p","prefer":"compiled","search":"compiled"}|};
    {|{"op":"query","obj":"c1","lit":"p","search":"compiled"}|};
    {|{"op":"set_preference","rule":"nf","over":"f"}|};
    {|{"op":"clear_preference","rule":"nf","over":"f"}|};
    {|{"op":"pull","from":4,"max":128,"addr":"127.0.0.1:7001"}|};
    {|{"op":"explain","obj":"c1","lit":"-fly(penguin)","id":12}|};
    {|{"op":"stats"}|};
    {|{"op":"hello","seq":4,"protocol":3}|};
    {|{"op":"pull","from":4,"max":128}|};
    {|{"op":"fetch_snapshot"}|};
    {|{"op":"promote"}|};
    {|{"op":"shutdown"}|};
    {|{"op":"batch","requests":[{"op":"stats"},{"op":"query","obj":"c1","lit":"p"}]}|};
    {|{"op":"batch","id":4,"requests":[{"op":"version"},{"op":"add_rule","obj":"x","rule":"p."}]}|}
  ]

let spice = "{}[]\":,\\tf-0123456789.eEnu \n\x00\x7f\xc3\xa9op"

let random_string () =
  let len = rand 120 in
  String.init len (fun _ -> spice.[rand (String.length spice)])

let mutate src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  if n = 0 then random_string ()
  else begin
    (match rand 3 with
    | 0 -> Bytes.set b (rand n) spice.[rand (String.length spice)]
    | 1 ->
      let i = rand n and j = rand n in
      let ci = Bytes.get b i in
      Bytes.set b i (Bytes.get b j);
      Bytes.set b j ci
    | _ -> ());
    match rand 3 with
    | 0 -> Bytes.sub_string b 0 (rand n) (* truncated frame *)
    | 1 -> Bytes.to_string b ^ Bytes.sub_string b 0 (rand n)
    | _ -> Bytes.to_string b
  end

let test_decode_total () =
  let ok = ref 0 and err = ref 0 in
  for i = 1 to iters do
    let s =
      if i mod 3 = 0 then random_string ()
      else mutate (List.nth corpus (rand (List.length corpus)))
    in
    match W.decode_request s with
    | Ok _ -> incr ok
    | Error e ->
      incr err;
      if W.error_to_string e = "" then
        Alcotest.failf "empty error message for %S" s
    | exception e ->
      Alcotest.failf "decode_request raised %s on %S" (Printexc.to_string e) s
  done;
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes seen (ok=%d err=%d of %d)" !ok !err iters)
    true
    (!ok > 0 && !err > 0)

let test_corpus_decodes () =
  List.iter
    (fun s ->
      match W.decode_request s with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "corpus request rejected: %s: %s" s
          (W.error_to_string e))
    corpus

let suite =
  [ Alcotest.test_case "encode/parse round-trip" `Quick test_roundtrip;
    Alcotest.test_case "parse values and syntax errors" `Quick
      test_parse_values;
    Alcotest.test_case "oversized frames" `Quick test_oversized;
    Alcotest.test_case "request decoding" `Quick test_decode_requests;
    Alcotest.test_case "corpus decodes" `Quick test_corpus_decodes;
    Alcotest.test_case "decoder never raises" `Quick test_decode_total
  ]
