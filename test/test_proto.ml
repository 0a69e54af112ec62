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

(* The encoder as it was when it escaped one byte at a time, kept as the
   byte-for-byte reference for the run-copying escape. *)
let ref_add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec ref_add_json buf = function
  | W.Null -> Buffer.add_string buf "null"
  | W.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | W.Int i -> Buffer.add_string buf (string_of_int i)
  | W.Float f ->
    if Float.is_finite f then begin
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string buf s;
      if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s
      then Buffer.add_string buf ".0"
    end
    else Buffer.add_string buf "null"
  | W.String s -> ref_add_escaped buf s
  | W.List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        ref_add_json buf v)
      items;
    Buffer.add_char buf ']'
  | W.Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        ref_add_escaped buf k;
        Buffer.add_char buf ':';
        ref_add_json buf v)
      members;
    Buffer.add_char buf '}'

let ref_to_string v =
  let buf = Buffer.create 128 in
  ref_add_json buf v;
  Buffer.contents buf

let test_encode_bytes () =
  let same v =
    let got = W.to_string v and want = ref_to_string v in
    if not (String.equal got want) then
      Alcotest.failf "encoder output %S differs from the reference %S" got want
  in
  for _ = 1 to 500 do
    same (gen_json 4)
  done;
  let every_byte = String.init 256 Char.chr in
  same (W.String every_byte);
  same (W.Obj [ (every_byte, W.String (every_byte ^ every_byte)) ]);
  same (W.String "");
  same (W.String "\"\"")

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
  (* revision 9: one engine per question; only [prefer] still names
     one *)
  Alcotest.(check int) "protocol revision" 9 W.protocol_revision;
  Alcotest.(check string) "package version" "1.12.0" W.package_version;
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
  (* the revision-7 selectors are not read: whatever they name, a
     plain query stays plain *)
  (match
     W.decode_request
       {|{"op":"query","obj":"c1","lit":"p","search":"pruned",
          "engine":"naive"}|}
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
  (* revision 9 ignores the revision-7 "search" field and its legacy
     "engine" alias like any unknown field, whatever engine they name *)
  List.iter
    (fun line ->
      match W.decode_request line with
      | Ok { verb = W.Models { prefer = false; _ }; _ } -> ()
      | Ok _ -> Alcotest.failf "models search decoded wrong: %s" line
      | Error e ->
        Alcotest.failf "models search rejected: %s: %s" line
          (W.error_to_string e))
    [ {|{"op":"models","obj":"o","search":"compiled"}|};
      {|{"op":"models","obj":"o","search":"pruned"}|};
      {|{"op":"models","obj":"o","search":"fastest","engine":"naive"}|};
      {|{"op":"models","obj":"o","search":3,"engine":null}|}
    ];
  (match
     W.decode_request
       {|{"op":"models","obj":"o","search":"pruned","engine":"compiled",
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
  (* "prefer" names only the compiled preference translation *)
  err {|{"op":"models","obj":"o","prefer":"naive"}|};
  err {|{"op":"query","obj":"o","lit":"p","prefer":"naive"}|};
  err {|{"op":"stats","id":"seven"}|};
  err {|[1,2,3]|};
  err {|"stats"|}

(* One sample request per verb; [op_of] has no wildcard arm, so a verb
   added without a sample here does not compile. *)
let op_of = function
  | W.Load _ -> "load"
  | W.Define _ -> "define"
  | W.Add_rule _ -> "add_rule"
  | W.Remove_rule _ -> "remove_rule"
  | W.New_version _ -> "new_version"
  | W.Query _ -> "query"
  | W.Models _ -> "models"
  | W.Set_preference _ -> "set_preference"
  | W.Clear_preference _ -> "clear_preference"
  | W.Explain _ -> "explain"
  | W.Stats -> "stats"
  | W.Version -> "version"
  | W.Snapshot -> "snapshot"
  | W.Shutdown -> "shutdown"
  | W.Hello _ -> "hello"
  | W.Pull _ -> "pull"
  | W.Fetch_snapshot _ -> "fetch_snapshot"
  | W.Promote -> "promote"
  | W.Batch _ -> "batch"

let every_verb =
  [ {|{"op":"load","src":"component c { p. }"}|};
    {|{"op":"define","name":"x","isa":["c"],"rules":"q."}|};
    {|{"op":"add_rule","obj":"c","rule":"q."}|};
    {|{"op":"remove_rule","obj":"c","rule":"q."}|};
    {|{"op":"new_version","name":"c"}|};
    {|{"op":"query","obj":"c","lit":"p"}|};
    {|{"op":"models","obj":"c"}|};
    {|{"op":"set_preference","rule":"a","over":"b"}|};
    {|{"op":"clear_preference","rule":"a","over":"b"}|};
    {|{"op":"explain","obj":"c","lit":"p"}|};
    {|{"op":"stats"}|};
    {|{"op":"version"}|};
    {|{"op":"snapshot"}|};
    {|{"op":"shutdown"}|};
    {|{"op":"hello","seq":0,"protocol":9}|};
    {|{"op":"pull","from":0}|};
    {|{"op":"fetch_snapshot"}|};
    {|{"op":"promote"}|};
    {|{"op":"batch","requests":[{"op":"stats"}]}|}
  ]

(* Inside a batch, exactly the verbs whose class is not batchable are
   rejected, each in place; the connection-scoped verbs and nested
   batches are the unbatchable ones. *)
let test_batch_admission () =
  let decoded =
    List.map
      (fun line ->
        match W.decode_request line with
        | Ok r -> r
        | Error e ->
          Alcotest.failf "%s rejected: %s" line (W.error_to_string e))
      every_verb
  in
  Alcotest.(check int) "one sample per verb" 19
    (List.length
       (List.sort_uniq compare
          (List.map (fun (r : W.request) -> op_of r.verb) decoded)));
  let frame =
    Printf.sprintf {|{"op":"batch","requests":[%s]}|}
      (String.concat "," every_verb)
  in
  match W.decode_request frame with
  | Ok { verb = W.Batch items; _ } ->
    List.iter2
      (fun (r : W.request) item ->
        let op = op_of r.verb in
        match (W.classify r.verb).batchable, item with
        | true, Ok (i : W.request) ->
          Alcotest.(check string) ("admitted " ^ op) op (op_of i.verb)
        | false, Error _ -> ()
        | true, Error m -> Alcotest.failf "batchable %s rejected: %s" op m
        | false, Ok _ -> Alcotest.failf "unbatchable %s admitted" op)
      decoded items;
    Alcotest.(check (list string)) "the unbatchable verbs"
      [ "shutdown"; "hello"; "pull"; "fetch_snapshot"; "promote"; "batch" ]
      (List.filter_map
         (fun (r : W.request) ->
           if (W.classify r.verb).batchable then None else Some (op_of r.verb))
         decoded)
  | Ok _ -> Alcotest.fail "batch decoded wrong"
  | Error e -> Alcotest.failf "batch rejected: %s" (W.error_to_string e)

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
    Alcotest.test_case "encoder bytes = per-byte reference" `Quick
      test_encode_bytes;
    Alcotest.test_case "parse values and syntax errors" `Quick
      test_parse_values;
    Alcotest.test_case "oversized frames" `Quick test_oversized;
    Alcotest.test_case "request decoding" `Quick test_decode_requests;
    Alcotest.test_case "batch admits exactly the batchable verbs" `Quick
      test_batch_admission;
    Alcotest.test_case "corpus decodes" `Quick test_corpus_decodes;
    Alcotest.test_case "decoder never raises" `Quick test_decode_total
  ]
