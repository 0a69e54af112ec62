(* The replica's side of the replication verbs: request builders and
   reply decoders over the ordinary wire protocol.  Pure; see
   protocol.mli. *)

module Record = Persist.Record

type refusal = { kind : string; message : string; epoch : int option }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let addr_field = function
  | None -> []
  | Some addr -> [ ("addr", Wire.String addr) ]

let hello ?addr ~seq ~epoch ~rid () =
  Wire.Obj
    ([ ("op", Wire.String "hello");
       ("seq", Wire.Int seq);
       ("protocol", Wire.Int Wire.protocol_revision);
       ("epoch", Wire.Int epoch);
       ("rid", Wire.String rid)
     ]
    @ addr_field addr)

let pull ?addr ~from ~max ~epoch ~rid ~durable () =
  Wire.Obj
    ([ ("op", Wire.String "pull");
       ("from", Wire.Int from);
       ("max", Wire.Int max);
       ("epoch", Wire.Int epoch);
       ("rid", Wire.String rid);
       ("durable", Wire.Int durable)
     ]
    @ addr_field addr)

let fetch_snapshot ~epoch =
  Wire.Obj [ ("op", Wire.String "fetch_snapshot"); ("epoch", Wire.Int epoch) ]

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let int_field j name =
  match Wire.member name j with Some (Wire.Int i) -> Some i | _ -> None

let str_field j name =
  match Wire.member name j with Some (Wire.String s) -> Some s | _ -> None

let refusal_of j =
  match Wire.member "error" j with
  | Some e ->
    let kind =
      match str_field e "kind" with Some k -> k | None -> "internal"
    in
    let message =
      match str_field e "message" with Some m -> m | None -> ""
    in
    (* fencing refusals name the refusing side's term, so the link can
       tell "the primary moved ahead" from "the primary was deposed" *)
    Some { kind; message; epoch = int_field e "epoch" }
  | None -> None

(* Route a response by status: [ok] goes to the verb-specific decoder,
   a typed refusal comes back as [`Refused] for the link's policy, and
   anything else is [`Garbled] — the primary is not speaking the
   protocol we expect. *)
let classify j k =
  match Wire.status_of_response j with
  | `Ok -> k j
  | `Error -> (
    match refusal_of j with
    | Some r -> Error (`Refused r)
    | None -> Error (`Garbled "error response without an error object"))
  | `Partial -> Error (`Garbled "unexpected partial response")
  | `Unknown -> Error (`Garbled "response carries no status")

type hello_reply = {
  role : string;
  seq : int;
  epoch : int;
  action : [ `Tail | `Snapshot ];
}

let decode_hello j =
  classify j (fun j ->
      match
        ( str_field j "role",
          int_field j "seq",
          int_field j "epoch",
          str_field j "action" )
      with
      | Some role, Some seq, Some epoch, Some "tail" ->
        Ok { role; seq; epoch; action = `Tail }
      | Some role, Some seq, Some epoch, Some "snapshot" ->
        Ok { role; seq; epoch; action = `Snapshot }
      | Some _, Some _, Some _, Some a ->
        Error (`Garbled (Printf.sprintf "unknown handshake action %S" a))
      | _ -> Error (`Garbled "malformed hello reply"))

let decode_pull j =
  classify j (fun j ->
      match
        ( int_field j "seq",
          int_field j "epoch",
          int_field j "count",
          str_field j "records" )
      with
      | Some seq, Some epoch, Some count, Some hexed -> (
        match Hex.decode hexed with
        | Error msg -> Error (`Garbled ("bad hex in shipped records: " ^ msg))
        | Ok raw ->
          (* the payload is raw WAL frames, CRCs intact — the same walk
             crash recovery does *)
          let rec go pos acc n =
            match Record.unframe raw ~pos with
            | Record.End ->
              if n = count then Ok (seq, epoch, List.rev acc)
              else
                Error
                  (`Garbled
                     (Printf.sprintf
                        "record count mismatch: reply says %d, payload \
                         holds %d"
                        count n))
            | Record.Torn detail ->
              Error (`Garbled ("torn shipped record: " ^ detail))
            | Record.Frame { payload; next } -> (
              match Record.decode_mutation payload with
              | Ok m -> go next (m :: acc) (n + 1)
              | Error detail ->
                Error (`Garbled ("undecodable shipped mutation: " ^ detail)))
          in
          go 0 [] 0)
      | _ -> Error (`Garbled "malformed pull reply"))

let decode_snapshot j =
  classify j (fun j ->
      match
        (int_field j "seq", int_field j "epoch", str_field j "snapshot")
      with
      | Some seq, Some epoch, Some hexed -> (
        match Hex.decode hexed with
        | Error msg -> Error (`Garbled ("bad hex in snapshot image: " ^ msg))
        | Ok image -> (
          match Record.decode_snapshot image with
          | Ok (s, _, dump) when s = seq -> Ok (seq, epoch, dump)
          | Ok (s, _, _) ->
            Error
              (`Garbled
                 (Printf.sprintf
                    "snapshot sequence mismatch: reply says %d, image says \
                     %d"
                    seq s))
          | Error detail ->
            Error (`Garbled ("undecodable snapshot image: " ^ detail))))
      | _ -> Error (`Garbled "malformed snapshot reply"))
