open Logic

(* ["42"] is [Int 42], ["-7"] is [Int (-7)], anything else is [Sym]. *)
let parse_cell s =
  match int_of_string_opt s with
  | Some n -> Term.Int n
  | None -> Term.Sym s

let split_fields sep line =
  String.split_on_char sep line |> List.map String.trim

let facts_of_string ?(sep = '\t') ~rel doc =
  let lines = String.split_on_char '\n' doc in
  let rec go lineno arity acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then
        go (lineno + 1) arity acc rest
      else begin
        let cells = split_fields sep trimmed in
        let n = List.length cells in
        match arity with
        | Some a when a <> n ->
          Error
            (Printf.sprintf
               "line %d: expected %d field(s) for %s, found %d" lineno a rel n)
        | _ ->
          let fact =
            Rule.fact (Literal.pos (Atom.make rel (List.map parse_cell cells)))
          in
          go (lineno + 1) (Some n) (fact :: acc) rest
      end
  in
  go 1 None [] lines

let facts_of_file ?sep ~rel path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let doc =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    facts_of_string ?sep ~rel doc

let dump_relation ?(sep = '\t') ~pred interp =
  Interp.true_atoms interp
  |> List.filter (fun (a : Atom.t) -> String.equal a.pred pred)
  |> List.map (fun (a : Atom.t) ->
         String.concat (String.make 1 sep)
           (List.map Term.to_string a.args))
  |> List.sort compare
  |> fun lines -> String.concat "\n" lines ^ if lines = [] then "" else "\n"

let relations interp =
  Interp.true_atoms interp
  |> List.map (fun (a : Atom.t) -> (a.Atom.pred, Atom.arity a))
  |> List.sort_uniq compare
