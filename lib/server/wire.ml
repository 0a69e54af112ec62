(* Hand-rolled line-oriented JSON codec for the query server (the
   toolchain bakes in no JSON library; the grammar is RFC 8259 with a
   frame-length and a nesting-depth limit so hostile input cannot blow
   the worker's stack or memory).  Pure; see wire.mli. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

type error =
  | Oversized of { length : int; limit : int }
  | Syntax of { offset : int; message : string }
  | Request of { message : string }

let error_to_string = function
  | Oversized { length; limit } ->
    Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" length limit
  | Syntax { offset; message } ->
    Printf.sprintf "invalid JSON at offset %d: %s" offset message
  | Request { message } -> Printf.sprintf "invalid request: %s" message

let default_max_len = 1024 * 1024
let max_depth = 256

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of int * string

let utf8_encode buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse ?(max_len = default_max_len) s =
  let n = String.length s in
  if n > max_len then Error (Oversized { length = n; limit = max_len })
  else begin
    let pos = ref 0 in
    let fail msg = raise (Bad (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        &&
        match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word =
      if
        !pos + String.length word <= n
        && String.sub s !pos (String.length word) = word
      then pos := !pos + String.length word
      else fail (Printf.sprintf "expected %s" word)
    in
    let hex4 () =
      let v = ref 0 in
      for _ = 1 to 4 do
        (match peek () with
        | Some ('0' .. '9' as c) -> v := (!v * 16) + (Char.code c - 48)
        | Some ('a' .. 'f' as c) -> v := (!v * 16) + (Char.code c - 87)
        | Some ('A' .. 'F' as c) -> v := (!v * 16) + (Char.code c - 55)
        | _ -> fail "bad \\u escape");
        advance ()
      done;
      !v
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\' | '/') as c) ->
            Buffer.add_char buf c;
            advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'u' ->
            advance ();
            let cp = hex4 () in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* high surrogate: require the low half *)
              if peek () = Some '\\' then advance () else fail "lone surrogate";
              if peek () = Some 'u' then advance () else fail "lone surrogate";
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "bad surrogate pair";
              utf8_encode buf
                (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then fail "lone surrogate"
            else utf8_encode buf cp
          | _ -> fail "bad escape");
          go ()
        | Some c when Char.code c < 0x20 -> fail "control character in string"
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      if peek () = Some '-' then advance ();
      let digits () =
        let d0 = !pos in
        while match peek () with Some '0' .. '9' -> true | _ -> false do
          advance ()
        done;
        if !pos = d0 then fail "expected digit"
      in
      (* integer part: "0" or a nonzero digit followed by more — a
         leading zero is not RFC 8259 *)
      (match peek () with
      | Some '0' -> (
        advance ();
        match peek () with
        | Some '0' .. '9' -> fail "leading zero"
        | _ -> ())
      | Some '1' .. '9' -> digits ()
      | _ -> fail "expected digit");
      let fractional = ref false in
      if peek () = Some '.' then begin
        fractional := true;
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        fractional := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      let src = String.sub s start (!pos - start) in
      if !fractional then Float (float_of_string src)
      else
        match int_of_string_opt src with
        | Some i -> Int i
        | None -> Float (float_of_string src)
    in
    let rec value depth =
      if depth > max_depth then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let members = ref [] in
          let member () =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            members := (k, value (depth + 1)) :: !members
          in
          member ();
          while (skip_ws (); peek () = Some ',') do
            advance ();
            member ()
          done;
          skip_ws ();
          expect '}';
          Obj (List.rev !members)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else begin
          let items = ref [ value (depth + 1) ] in
          while (skip_ws (); peek () = Some ',') do
            advance ();
            items := value (depth + 1) :: !items
          done;
          skip_ws ();
          expect ']';
          List (List.rev !items)
        end
      | Some '"' -> String (string_lit ())
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"; Bool true
      | Some 'f' -> literal "false"; Bool false
      | Some 'n' -> literal "null"; Null
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
      | None -> fail "unexpected end of input"
    in
    match
      let v = value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage after document";
      v
    with
    | v -> Ok v
    | exception Bad (offset, message) -> Error (Syntax { offset; message })
  end

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
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

let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then begin
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string buf s;
      (* "%g" may print an integer-valued float without '.' or 'e' *)
      if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s
      then Buffer.add_string buf ".0"
    end
    else Buffer.add_string buf "null"
  | String s -> add_escaped buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_json buf v)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add_json buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  add_json buf v;
  Buffer.contents buf

let member k = function Obj members -> List.assoc_opt k members | _ -> None

(* ------------------------------------------------------------------ *)
(* Request decoding                                                    *)
(* ------------------------------------------------------------------ *)

type budget_spec = { timeout_ms : int option; max_steps : int option }

type verb =
  | Load of { src : string }
  | Define of { name : string; isa : string list; rules : string }
  | Add_rule of { obj : string; rule : string }
  | Remove_rule of { obj : string; rule : string }
  | New_version of { name : string; rules : string option }
  | Query of {
      obj : string;
      lit : string;
      prefer : bool;
    }
  | Models of {
      obj : string;
      kind : [ `Stable | `Af ];
      limit : int option;
      prefer : bool;
    }
  | Set_preference of { rule : string; over : string }
  | Clear_preference of { rule : string; over : string }
  | Explain of { obj : string; lit : string }
  | Stats
  | Version
  | Snapshot
  | Shutdown
  | Hello of {
      seq : int;
      protocol : int;
      epoch : int;
      rid : string option;
      addr : string option;
    }
  | Pull of {
      from_seq : int;
      max : int option;
      epoch : int;
      rid : string option;
      durable : int option;
      addr : string option;
    }
  | Fetch_snapshot of { epoch : int }
  | Promote
  | Batch of batch_item list

and request = { id : int option; budget : budget_spec; verb : verb }

and batch_item = (request, string) result

let package_version = "1.8.0"
let protocol_revision = 8
let max_batch = 256

exception Bad_request of string

let reject fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

let str_field o name =
  match member name o with
  | Some (String s) -> s
  | Some _ -> reject "field %S must be a string" name
  | None -> reject "missing field %S" name

let opt_str_field o name =
  match member name o with
  | Some (String s) -> Some s
  | Some Null | None -> None
  | Some _ -> reject "field %S must be a string" name

let opt_nat_field o name =
  match member name o with
  | Some (Int i) when i >= 0 -> Some i
  | Some Null | None -> None
  | Some _ -> reject "field %S must be a non-negative integer" name

let nat_field o name =
  match opt_nat_field o name with
  | Some i -> i
  | None -> reject "missing field %S" name

let str_list_field o name =
  match member name o with
  | Some (List items) ->
    List.map
      (function
        | String s -> s
        | _ -> reject "field %S must be a list of strings" name)
      items
  | Some Null | None -> []
  | Some _ -> reject "field %S must be a list of strings" name

(* One engine answers each question, so the fields that used to pick
   one — [search], its legacy alias [engine], and [prefer] — accept only
   the value naming it, ["compiled"] (what revision-7 clients send for
   the kernel and the compiled preference translation).  [true] when the
   field is present. *)
let compiled_field o name ~what =
  match opt_str_field o name with
  | None -> false
  | Some "compiled" -> true
  | Some e -> reject "unknown %s %S" what e

let engine_fields o =
  let prefer = compiled_field o "prefer" ~what:"prefer engine" in
  ignore (compiled_field o "search" ~what:"search engine" : bool);
  ignore (compiled_field o "engine" ~what:"engine" : bool);
  prefer

let rec decode_verb o = function
  | "load" -> Load { src = str_field o "src" }
  | "define" ->
    Define
      { name = str_field o "name";
        isa = str_list_field o "isa";
        rules = Option.value ~default:"" (opt_str_field o "rules")
      }
  | "add_rule" -> Add_rule { obj = str_field o "obj"; rule = str_field o "rule" }
  | "remove_rule" ->
    Remove_rule { obj = str_field o "obj"; rule = str_field o "rule" }
  | "new_version" ->
    New_version { name = str_field o "name"; rules = opt_str_field o "rules" }
  | "query" ->
    let prefer = engine_fields o in
    Query { obj = str_field o "obj"; lit = str_field o "lit"; prefer }
  | "models" ->
    let kind =
      match opt_str_field o "kind" with
      | None | Some "stable" -> `Stable
      | Some "assumption-free" -> `Af
      | Some k -> reject "unknown models kind %S" k
    in
    let prefer = engine_fields o in
    if prefer && kind = `Af then
      reject "\"prefer\" applies to stable models only (kind \"stable\")";
    Models
      { obj = str_field o "obj";
        kind;
        limit = opt_nat_field o "limit";
        prefer
      }
  | "set_preference" ->
    Set_preference { rule = str_field o "rule"; over = str_field o "over" }
  | "clear_preference" ->
    Clear_preference { rule = str_field o "rule"; over = str_field o "over" }
  | "explain" -> Explain { obj = str_field o "obj"; lit = str_field o "lit" }
  | "stats" -> Stats
  | "version" -> Version
  | "snapshot" -> Snapshot
  | "shutdown" -> Shutdown
  | "hello" ->
    Hello
      { seq = nat_field o "seq";
        protocol = nat_field o "protocol";
        epoch = Option.value ~default:0 (opt_nat_field o "epoch");
        rid = opt_str_field o "rid";
        addr = opt_str_field o "addr"
      }
  | "pull" ->
    Pull
      { from_seq = nat_field o "from";
        max = opt_nat_field o "max";
        epoch = Option.value ~default:0 (opt_nat_field o "epoch");
        rid = opt_str_field o "rid";
        durable = opt_nat_field o "durable";
        addr = opt_str_field o "addr"
      }
  | "fetch_snapshot" ->
    Fetch_snapshot
      { epoch = Option.value ~default:0 (opt_nat_field o "epoch") }
  | "promote" -> Promote
  | "batch" ->
    let items =
      match member "requests" o with
      | Some (List items) -> items
      | Some _ -> reject "field \"requests\" must be a list of requests"
      | None -> reject "missing field \"requests\""
    in
    let n = List.length items in
    if n = 0 then reject "empty batch";
    if n > max_batch then
      reject "batch of %d requests exceeds the limit of %d" n max_batch;
    Batch (List.map decode_item items)
  | op -> reject "unknown op %S" op

(* One batched request.  A malformed item never poisons the frame: its
   decode failure is reified as [Error message] and answered in place,
   so the sibling requests still run.  Connection-scoped verbs (the
   replication handshake, shutdown) and nested batches are rejected
   per-item too. *)
and decode_item = function
  | Obj _ as o -> (
    match
      (match str_field o "op" with
      | "batch" -> reject "nested batch"
      | ("shutdown" | "hello" | "pull" | "fetch_snapshot" | "promote") as op ->
        reject "op %S cannot appear inside a batch" op
      | _ -> ());
      decode_request_obj o
    with
    | r -> Ok r
    | exception Bad_request message -> Error message)
  | _ -> Error "batch item must be a JSON object"

and decode_request_obj o =
  let verb = decode_verb o (str_field o "op") in
  let id =
    match member "id" o with
    | Some (Int i) -> Some i
    | Some Null | None -> None
    | Some _ -> reject "field \"id\" must be an integer"
  in
  let budget =
    { timeout_ms = opt_nat_field o "timeout_ms";
      max_steps = opt_nat_field o "max_steps"
    }
  in
  { id; budget; verb }

let decode_request ?max_len line =
  match parse ?max_len line with
  | Error e -> Error e
  | Ok (Obj _ as o) -> (
    match decode_request_obj o with
    | r -> Ok r
    | exception Bad_request message -> Error (Request { message }))
  | Ok _ -> Error (Request { message = "request must be a JSON object" })

let batch ?id items =
  Obj
    (("op", String "batch")
    :: (match id with None -> [] | Some i -> [ ("id", Int i) ])
    @ [ ("requests", List items) ])

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let with_id id fields =
  match id with None -> fields | Some i -> ("id", Int i) :: fields

let ok ?id fields = Obj (("status", String "ok") :: with_id id fields)

let partial ?id ~reason fields =
  Obj
    (("status", String "partial")
    :: with_id id (("reason", String reason) :: fields))

let error_response ?id ?(extra = []) ~kind message =
  Obj
    (("status", String "error")
    :: with_id id
         [ ("error",
            Obj
              (("kind", String kind) :: ("message", String message) :: extra))
         ])

let status_of_response j =
  match member "status" j with
  | Some (String "ok") -> `Ok
  | Some (String "partial") -> `Partial
  | Some (String "error") -> `Error
  | _ -> `Unknown
