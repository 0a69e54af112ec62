(* JSON well-formedness checker for the benchmark artifacts (the
   toolchain has no JSON library baked in, and the cram tests must not
   depend on jq being installed).

   Usage: json_check FILE [KEY ...]

   Parses FILE as a single JSON document with the server's wire parser
   (RFC 8259 grammar, no extensions, no length limit) and requires every
   KEY to be present at the top level (which must then be an object).
   Prints "FILE: valid JSON" and exits 0 on success; prints the parse
   error with its offset and exits 1 otherwise. *)

module W = Server.Wire

let () =
  match Array.to_list Sys.argv with
  | _ :: file :: wanted -> (
    let ic = open_in_bin file in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match W.parse ~max_len:max_int s with
    | Ok doc ->
      let keys = match doc with W.Obj fields -> List.map fst fields | _ -> [] in
      let missing = List.filter (fun k -> not (List.mem k keys)) wanted in
      if missing <> [] then begin
        Printf.eprintf "%s: missing top-level key(s): %s\n" file
          (String.concat ", " missing);
        exit 1
      end;
      Printf.printf "%s: valid JSON\n" file
    | Error e ->
      Printf.eprintf "%s: %s\n" file (W.error_to_string e);
      exit 1)
  | _ ->
    prerr_endline "usage: json_check FILE [KEY ...]";
    exit 2
