open Logic

type component_id = int

module StrMap = Map.Make (String)

type t = {
  names : string array;
  index : component_id StrMap.t;  (** name -> id *)
  rules : Rule.t list array;
  poset : Poset.t;
}

let resolve index name =
  match StrMap.find_opt name index with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "unknown component %S in order" name)

let resolve_pair index (lo, hi) =
  Result.bind (resolve index lo) (fun a ->
      Result.map (fun b -> (a, b)) (resolve index hi))

let rec resolve_all f acc = function
  | [] -> Ok (List.rev acc)
  | x :: rest -> (
    match f x with
    | Ok y -> resolve_all f (y :: acc) rest
    | Error e -> Error e)

let make components order =
  let names = Array.of_list (List.map fst components) in
  let rec index_from i index =
    if i = Array.length names then Ok index
    else if StrMap.mem names.(i) index then
      Error (Printf.sprintf "duplicate component name %S" names.(i))
    else index_from (i + 1) (StrMap.add names.(i) i index)
  in
  match index_from 0 StrMap.empty with
  | Error e -> Error e
  | Ok index -> (
    match resolve_all (resolve_pair index) [] order with
    | Error e -> Error e
    | Ok pairs -> (
      match Poset.make ~n:(Array.length names) ~pairs with
      | Error e -> Error e
      | Ok poset ->
        Ok
          { names;
            index;
            rules = Array.of_list (List.map snd components);
            poset
          }))

let extend t name ~parents rules =
  if StrMap.mem name t.index then
    Error (Printf.sprintf "duplicate component name %S" name)
  else
    match resolve_all (resolve t.index) [] parents with
    | Error e -> Error e
    | Ok parents ->
      let id = Array.length t.names in
      Ok
        { names = Array.append t.names [| name |];
          index = StrMap.add name id t.index;
          rules = Array.append t.rules [| rules |];
          poset = Poset.extend t.poset ~parents
        }

let make_exn components order =
  match make components order with
  | Ok t -> t
  | Error e -> invalid_arg ("Program.make: " ^ e)

let singleton rules = make_exn [ ("main", rules) ] []

let of_ast ast =
  match Lang.Ast.components ast with
  | exception Invalid_argument e -> Error e
  | comps ->
    let components =
      List.map (fun (c : Lang.Ast.component) -> (c.name, c.rules)) comps
    in
    make components (Lang.Ast.order_pairs ast)

let parse src =
  match Lang.Parser.parse_file src with
  | exception Lang.Lexer.Error (msg, pos) ->
    Error (Printf.sprintf "lexical error at %d:%d: %s" pos.line pos.col msg)
  | exception Lang.Parser.Error (msg, pos) ->
    Error (Printf.sprintf "syntax error at %d:%d: %s" pos.line pos.col msg)
  | ast -> of_ast ast

let parse_exn src =
  match parse src with
  | Ok t -> t
  | Error e -> invalid_arg ("Program.parse: " ^ e)

let component_names t = Array.copy t.names

let component_id t name = StrMap.find_opt name t.index

let component_id_exn t name =
  match component_id t name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Program.component_id: unknown %S" name)

let component_name t i = t.names.(i)
let poset t = t.poset

let view t c =
  List.concat_map
    (fun j -> List.map (fun r -> (j, r)) t.rules.(j))
    (Poset.above t.poset c)

let all_rules t = List.concat (Array.to_list t.rules)

let with_rules t c rules =
  let all = Array.copy t.rules in
  all.(c) <- rules;
  { t with rules = all }

let add_rules t c extra = with_rules t c (t.rules.(c) @ extra)

let to_ast t =
  let comps =
    Array.to_list
      (Array.mapi
         (fun i name ->
           Lang.Ast.Component { name; parents = []; rules = t.rules.(i) })
         t.names)
  in
  (* Emit the covering relation (transitive reduction), so printing and
     re-parsing reproduces the same poset without redundant pairs. *)
  let pairs = ref [] in
  let n = Array.length t.names in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if
        Poset.lt t.poset a b
        && not
             (List.exists
                (fun c -> Poset.lt t.poset a c && Poset.lt t.poset c b)
                (List.init n Fun.id))
      then pairs := (t.names.(a), t.names.(b)) :: !pairs
    done
  done;
  comps @ (if !pairs = [] then [] else [ Lang.Ast.Order (List.rev !pairs) ])

let pp ppf t = Lang.Ast.pp ppf (to_ast t)
