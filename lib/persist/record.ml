(* Binary codecs for WAL records and snapshots; see record.mli for the
   grammar.  Encoders build strings in a Buffer; decoders walk a string
   already in memory, check every length against the bytes present
   before allocating, and report failures as [Error], never as an
   exception. *)

(* ------------------------------------------------------------------ *)
(* Primitive writers                                                   *)
(* ------------------------------------------------------------------ *)

let put_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xFF))

let put_u32 buf n =
  if n < 0 || n > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Record: u32 out of range (%d)" n);
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xFF))
  done

let put_u64 buf n =
  if n < 0 then invalid_arg "Record: u64 out of range";
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xFF))
  done

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_list buf put items =
  put_u32 buf (List.length items);
  List.iter (put buf) items

(* ------------------------------------------------------------------ *)
(* Primitive readers                                                   *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type reader = { src : string; mutable pos : int; stop : int }

let need r n =
  if r.stop - r.pos < n then
    corrupt "truncated record (need %d byte(s) at offset %d)" n r.pos

let get_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code r.src.[r.pos + i]
  done;
  r.pos <- r.pos + 4;
  !v

let get_u64 r =
  need r 8;
  let v = ref 0 in
  for i = 7 downto 0 do
    let b = Char.code r.src.[r.pos + i] in
    if i = 7 && b > 0x3F then corrupt "u64 out of native int range";
    v := (!v lsl 8) lor b
  done;
  r.pos <- r.pos + 8;
  !v

let get_str r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* Every element takes at least one byte, so a corrupt count fails at
   the end of the input before the list outgrows it. *)
let get_list r get =
  let n = get_u32 r in
  List.init n (fun _ -> get r)

let get_rule r =
  let s = get_str r in
  match Lang.Parser.parse_rule s with
  | rule -> rule
  | exception (Lang.Lexer.Error (m, _) | Lang.Parser.Error (m, _)) ->
    corrupt "unparsable rule %S: %s" s m
  | exception (Invalid_argument m | Failure m) ->
    corrupt "unparsable rule %S: %s" s m

let finished r what =
  if r.pos <> r.stop then
    corrupt "%d trailing byte(s) after %s" (r.stop - r.pos) what

(* ------------------------------------------------------------------ *)
(* Mutation payloads                                                   *)
(* ------------------------------------------------------------------ *)

let put_rule buf rule = put_str buf (Logic.Rule.to_string rule)

let encode_mutation m =
  let buf = Buffer.create 128 in
  (match (m : Kb.Store.mutation) with
  | Define { name; isa; rules } ->
    put_u8 buf 0x01;
    put_str buf name;
    put_list buf put_str isa;
    put_list buf put_rule rules
  | Add_rule { obj; rule } ->
    put_u8 buf 0x02;
    put_str buf obj;
    put_rule buf rule
  | Remove_rule { obj; rule } ->
    put_u8 buf 0x03;
    put_str buf obj;
    put_rule buf rule
  | New_version { name; rules } ->
    put_u8 buf 0x04;
    put_str buf name;
    (match rules with
    | None -> put_u8 buf 0
    | Some rs ->
      put_u8 buf 1;
      put_list buf put_rule rs)
  | Load { src } ->
    put_u8 buf 0x05;
    put_str buf src
  | Set_preference { rule; over } ->
    put_u8 buf 0x06;
    put_str buf rule;
    put_str buf over
  | Clear_preference { rule; over } ->
    put_u8 buf 0x07;
    put_str buf rule;
    put_str buf over);
  Buffer.contents buf

let decode_mutation s =
  let r = { src = s; pos = 0; stop = String.length s } in
  match
    let m : Kb.Store.mutation =
      match get_u8 r with
      | 0x01 ->
        let name = get_str r in
        let isa = get_list r get_str in
        let rules = get_list r get_rule in
        Define { name; isa; rules }
      | 0x02 ->
        let obj = get_str r in
        Add_rule { obj; rule = get_rule r }
      | 0x03 ->
        let obj = get_str r in
        Remove_rule { obj; rule = get_rule r }
      | 0x04 ->
        let name = get_str r in
        let rules =
          match get_u8 r with
          | 0 -> None
          | 1 -> Some (get_list r get_rule)
          | b -> corrupt "bad option tag 0x%02x" b
        in
        New_version { name; rules }
      | 0x05 -> Load { src = get_str r }
      | 0x06 ->
        let rule = get_str r in
        Set_preference { rule; over = get_str r }
      | 0x07 ->
        let rule = get_str r in
        Clear_preference { rule; over = get_str r }
      | tag -> corrupt "unknown record tag 0x%02x" tag
    in
    finished r "mutation";
    m
  with
  | m -> Ok m
  | exception Corrupt msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  put_u32 buf (String.length payload);
  put_u32 buf (Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

type unframed =
  | Frame of { payload : string; next : int }
  | End
  | Torn of string

let read_u32_at s pos =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let unframe s ~pos =
  let n = String.length s in
  if pos = n then End
  else if n - pos < 8 then
    Torn (Printf.sprintf "short frame header (%d byte(s))" (n - pos))
  else begin
    let len = read_u32_at s pos in
    let crc = read_u32_at s (pos + 4) in
    if n - pos - 8 < len then
      Torn
        (Printf.sprintf "short payload (%d of %d byte(s))" (n - pos - 8) len)
    else if Crc32.sub s ~pos:(pos + 8) ~len <> crc then
      Torn "CRC mismatch"
    else Frame { payload = String.sub s (pos + 8) len; next = pos + 8 + len }
  end

(* ------------------------------------------------------------------ *)
(* WAL header                                                          *)
(* ------------------------------------------------------------------ *)

(* Version 1 headers carry only the base sequence; version 2 adds the
   replication epoch.  Writers emit v2; readers accept both (v1 files
   predate fencing and implicitly belong to epoch 0). *)
let wal_magic_v1 = "OLPWAL1\n"
let wal_magic = "OLPWAL2\n"
let wal_header_len = String.length wal_magic + 16

type wal_head = { wal_base : int; wal_epoch : int; wal_head_len : int }

let wal_header ~base ~epoch =
  let buf = Buffer.create wal_header_len in
  Buffer.add_string buf wal_magic;
  put_u64 buf base;
  put_u64 buf epoch;
  Buffer.contents buf

let decode_wal_header s =
  let ml = String.length wal_magic in
  if String.length s < ml then Error "short WAL header"
  else
    let magic = String.sub s 0 ml in
    let fields ~epoch ~len =
      if String.length s < len then Error "short WAL header"
      else
        let r = { src = s; pos = ml; stop = len } in
        match
          let base = get_u64 r in
          let ep = if epoch then get_u64 r else 0 in
          (base, ep)
        with
        | base, ep ->
          Ok { wal_base = base; wal_epoch = ep; wal_head_len = len }
        | exception Corrupt msg -> Error msg
    in
    if magic = wal_magic then fields ~epoch:true ~len:(ml + 16)
    else if magic = wal_magic_v1 then fields ~epoch:false ~len:(ml + 8)
    else Error "bad WAL magic"

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* Same versioning story as the WAL header: v2 snapshots carry the
   epoch after the sequence number (v1 decodes as epoch 0); v3 appends
   the preference pairs after the version counters (v1/v2 decode with no
   preferences). *)
let snapshot_magic_v1 = "OLPSNAP1"
let snapshot_magic_v2 = "OLPSNAP2"
let snapshot_magic = "OLPSNAP3"

let encode_snapshot ~seq ~epoch (d : Kb.Store.dump) =
  let buf = Buffer.create 1024 in
  put_u64 buf seq;
  put_u64 buf epoch;
  put_list buf
    (fun buf (name, parents, rules) ->
      put_str buf name;
      put_list buf put_str parents;
      put_list buf put_rule rules)
    d.dump_objs;
  put_list buf
    (fun buf (base, latest) ->
      put_str buf base;
      put_str buf latest)
    d.dump_latest;
  put_list buf
    (fun buf (base, count) ->
      put_str buf base;
      put_u32 buf count)
    d.dump_counts;
  put_list buf
    (fun buf (rule, over) ->
      put_str buf rule;
      put_str buf over)
    d.dump_prefs;
  let payload = Buffer.contents buf in
  let out = Buffer.create (String.length payload + 16) in
  Buffer.add_string out snapshot_magic;
  put_u32 out (String.length payload);
  put_u32 out (Crc32.string payload);
  Buffer.add_string out payload;
  Buffer.contents out

let decode_snapshot s =
  let m = String.length snapshot_magic in
  let versioned =
    if String.length s < m then None
    else
      match String.sub s 0 m with
      | v when v = snapshot_magic -> Some 3
      | v when v = snapshot_magic_v2 -> Some 2
      | v when v = snapshot_magic_v1 -> Some 1
      | _ -> None
  in
  match versioned with
  | None -> Error "bad snapshot magic"
  | Some version -> (
    let has_epoch = version >= 2 in
    let has_prefs = version >= 3 in
    match unframe s ~pos:m with
    | End -> Error "empty snapshot"
    | Torn msg -> Error msg
    | Frame { payload; next } ->
      if next <> String.length s then
        Error "trailing bytes after snapshot payload"
      else
        let r = { src = payload; pos = 0; stop = String.length payload } in
        (match
           let seq = get_u64 r in
           let epoch = if has_epoch then get_u64 r else 0 in
           let dump_objs =
             get_list r (fun r ->
                 let name = get_str r in
                 let parents = get_list r get_str in
                 let rules = get_list r get_rule in
                 (name, parents, rules))
           in
           let dump_latest =
             get_list r (fun r ->
                 let base = get_str r in
                 let latest = get_str r in
                 (base, latest))
           in
           let dump_counts =
             get_list r (fun r ->
                 let base = get_str r in
                 let count = get_u32 r in
                 (base, count))
           in
           let dump_prefs =
             if has_prefs then
               get_list r (fun r ->
                   let rule = get_str r in
                   let over = get_str r in
                   (rule, over))
             else []
           in
           finished r "snapshot";
           ( seq,
             epoch,
             { Kb.Store.dump_objs; dump_latest; dump_counts; dump_prefs } )
         with
        | v -> Ok v
        | exception Corrupt msg -> Error msg))
