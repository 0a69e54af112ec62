type t = { fd : Unix.file_descr; lines : Net.reader }

let connect ?(retry = 0.) address =
  Result.map
    (fun fd -> { fd; lines = Net.reader fd })
    (Net.connect ~retry address)

(* Replies are read without a cap: a pull or snapshot reply carries
   records hex-encoded, twice their size, and a models answer grows
   with the program.  Only the daemon caps what it reads (requests). *)
let request_line t line =
  match Net.write_all t.fd (line ^ "\n") with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> (
    match Net.read_line t.lines with
    | `Eof -> Error "connection closed by server"
    | `Error msg -> Error msg
    | `Oversized n -> Error (Printf.sprintf "reply of %d bytes refused" n)
    | `Line response -> (
      match Wire.parse ~max_len:max_int response with
      | Ok j -> Ok j
      | Error e ->
        Error (Printf.sprintf "unparsable response: %s"
                 (Wire.error_to_string e))))

let request t j = request_line t (Wire.to_string j)

let shutdown t =
  try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
