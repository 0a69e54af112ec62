open Logic

type obj = {
  name : string;
  mutable parents : string list;
  mutable rules : Rule.t list;
}

type t = {
  mutable objs : obj list;  (** reverse definition order *)
  mutable latest : (string * string) list;  (** base object -> latest version *)
  mutable version_count : (string * int) list;
  mutable prefs : (string * string) list;  (** (preferred, over), decl order *)
  mutable program : Ordered.Program.t;
      (** {!to_program}: built when a load or a dump sets the objects,
          patched by rule edits and new objects *)
}

(* The ordered program of the objects (reverse definition order);
   raises [Invalid_argument] when their order is not a strict one. *)
let build ~where objs =
  match
    Ordered.Program.make
      (List.rev_map (fun o -> (o.name, o.rules)) objs)
      (List.concat_map
         (fun o -> List.map (fun p -> (o.name, p)) o.parents)
         (List.rev objs))
  with
  | Ok p -> p
  | Error e -> invalid_arg (where ^ ": " ^ e)

let create () =
  { objs = [];
    latest = [];
    version_count = [];
    prefs = [];
    program = build ~where:"Kb.create" []
  }

(* A rule edit keeps the objects, their numbering and the order, so the
   cached program is patched in O(objects) array copying instead of
   being rebuilt. *)
let rules_changed kb o =
  let p = kb.program in
  kb.program <-
    Ordered.Program.with_rules p
      (Ordered.Program.component_id_exn p o.name)
      o.rules

let clone o = { name = o.name; parents = o.parents; rules = o.rules }

let find kb name = List.find_opt (fun o -> String.equal o.name name) kb.objs

let find_exn kb name =
  match find kb name with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Kb: unknown object %S" name)

let define kb ?(isa = []) name rules =
  if find kb name <> None then
    invalid_arg (Printf.sprintf "Kb.define: duplicate object %S" name);
  List.iter (fun p -> ignore (find_exn kb p)) isa;
  (* a fresh object takes the next component id below existing ones, so
     the cached program extends by one row *)
  match Ordered.Program.extend kb.program name ~parents:isa rules with
  | Error e -> invalid_arg ("Kb.define: " ^ e)
  | Ok p ->
    kb.objs <- { name; parents = isa; rules } :: kb.objs;
    kb.program <- p

let load kb src =
  let ast = Lang.Parser.parse_file src in
  let comps = Lang.Ast.components ast in
  let pairs = Lang.Ast.order_pairs ast in
  let fresh =
    List.filter
      (fun p -> not (List.mem p kb.prefs))
      (Lang.Ast.prefer_pairs ast)
  in
  (* Check every name, parent and preference before the first insert:
     a load that fails changes nothing. *)
  let loaded = Hashtbl.create (List.length comps) in
  List.iter
    (fun (c : Lang.Ast.component) ->
      if find kb c.name <> None || Hashtbl.mem loaded c.name then
        invalid_arg (Printf.sprintf "Kb.load: duplicate object %S" c.name);
      Hashtbl.replace loaded c.name ())
    comps;
  let known name =
    if not (Hashtbl.mem loaded name) then ignore (find_exn kb name)
  in
  List.iter
    (fun (lo, hi) ->
      known hi;
      known lo)
    pairs;
  if fresh <> [] then Prefer.Spec.check_pairs (kb.prefs @ fresh);
  (* Definition order may reference later parents: the loaded objects
     join first, then every pair wires its parent — on copies, so the
     order is checked (a cycle raises) before the store changes. *)
  let objs =
    List.rev_append
      (List.map
         (fun (c : Lang.Ast.component) ->
           { name = c.name; parents = []; rules = c.rules })
         comps)
      (List.map clone kb.objs)
  in
  List.iter
    (fun (lo, hi) ->
      let o = List.find (fun o -> String.equal o.name lo) objs in
      if not (List.mem hi o.parents) then o.parents <- o.parents @ [ hi ])
    pairs;
  let program = build ~where:"Kb.load" objs in
  kb.objs <- objs;
  kb.prefs <- kb.prefs @ fresh;
  kb.program <- program

let add_rule kb ~obj r =
  let o = find_exn kb obj in
  o.rules <- o.rules @ [ r ];
  rules_changed kb o

let remove_rule kb ~obj r =
  let o = find_exn kb obj in
  let before = List.length o.rules in
  o.rules <- List.filter (fun r' -> not (Rule.equal r r')) o.rules;
  let removed = List.length o.rules < before in
  if removed then rules_changed kb o;
  removed

let objects kb = List.rev_map (fun o -> o.name) kb.objs
let parents kb name = (find_exn kb name).parents
let rules kb name = (find_exn kb name).rules

(* ------------------------------------------------------------------ *)
(* Preferences                                                         *)
(* ------------------------------------------------------------------ *)

let preferences kb = kb.prefs

(* The pair set must stay a strict order on its own: cycles are rejected
   here, eagerly, while unknown rule names are allowed (the rule may be
   defined later) and only rejected when a preferred query builds its
   {!Prefer.Spec} against a concrete view. *)
let set_preference kb ~rule ~over =
  let pair = (rule, over) in
  if not (List.mem pair kb.prefs) then begin
    Prefer.Spec.check_pairs (kb.prefs @ [ pair ]);
    kb.prefs <- kb.prefs @ [ pair ]
  end

let clear_preference kb ~rule ~over =
  let pair = (rule, over) in
  let present = List.mem pair kb.prefs in
  if present then kb.prefs <- List.filter (fun p -> p <> pair) kb.prefs;
  present

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

type dump = {
  dump_objs : (string * string list * Rule.t list) list;
  dump_latest : (string * string) list;
  dump_counts : (string * int) list;
  dump_prefs : (string * string) list;
}

let dump kb =
  { dump_objs =
      List.rev_map (fun o -> (o.name, o.parents, o.rules)) kb.objs;
    dump_latest = kb.latest;
    dump_counts = kb.version_count;
    dump_prefs = kb.prefs
  }

let of_dump d =
  let objs =
    List.rev_map
      (fun (name, parents, rules) -> { name; parents; rules })
      d.dump_objs
  in
  { objs;
    latest = d.dump_latest;
    version_count = d.dump_counts;
    prefs = d.dump_prefs;
    program = build ~where:"Kb.of_dump" objs
  }

(* A deep copy down to the per-object mutable fields: the clone and the
   original share rule/parent list structure (immutable), but mutating
   either store never changes what the other observes.  The immutable
   ordered program is shared, so a published copy grounds without
   rebuilding it.  One record per object: O(objects). *)
let copy kb = { kb with objs = List.map clone kb.objs }

let restore kb d =
  let fresh = of_dump d in
  kb.objs <- fresh.objs;
  kb.latest <- fresh.latest;
  kb.version_count <- fresh.version_count;
  kb.prefs <- fresh.prefs;
  kb.program <- fresh.program

(* ------------------------------------------------------------------ *)
(* Versioning                                                          *)
(* ------------------------------------------------------------------ *)

let latest_version kb name =
  ignore (find_exn kb name);
  match List.assoc_opt name kb.latest with
  | Some v -> v
  | None -> name

let new_version kb ?(rules = []) name =
  ignore (find_exn kb name);
  let count =
    match List.assoc_opt name kb.version_count with
    | Some c -> c
    | None -> 1
  in
  let prev = latest_version kb name in
  let vname = Printf.sprintf "%s@%d" name (count + 1) in
  define kb ~isa:[ prev ] vname rules;
  kb.version_count <-
    (name, count + 1) :: List.remove_assoc name kb.version_count;
  kb.latest <- (name, vname) :: List.remove_assoc name kb.latest;
  vname

let versions kb name =
  ignore (find_exn kb name);
  let count =
    match List.assoc_opt name kb.version_count with
    | Some c -> c
    | None -> 1
  in
  name
  :: List.filter_map
       (fun i ->
         let v = Printf.sprintf "%s@%d" name i in
         if find kb v <> None then Some v else None)
       (List.init (max 0 (count - 1)) (fun i -> i + 2))

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

type mutation =
  | Define of { name : string; isa : string list; rules : Rule.t list }
  | Add_rule of { obj : string; rule : Rule.t }
  | Remove_rule of { obj : string; rule : Rule.t }
  | New_version of { name : string; rules : Rule.t list option }
  | Load of { src : string }
  | Set_preference of { rule : string; over : string }
  | Clear_preference of { rule : string; over : string }

let apply kb = function
  | Define { name; isa; rules } -> define kb ~isa name rules
  | Add_rule { obj; rule } -> add_rule kb ~obj rule
  | Remove_rule { obj; rule } -> ignore (remove_rule kb ~obj rule : bool)
  | New_version { name; rules } -> ignore (new_version kb ?rules name : string)
  | Load { src } -> load kb src
  | Set_preference { rule; over } -> set_preference kb ~rule ~over
  | Clear_preference { rule; over } ->
    ignore (clear_preference kb ~rule ~over : bool)

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let to_program kb = kb.program

let to_source kb =
  let base = Format.asprintf "%a" Ordered.Program.pp (to_program kb) in
  match kb.prefs with
  | [] -> base
  | prefs ->
    let buf = Buffer.create (String.length base + 64) in
    Buffer.add_string buf base;
    List.iter
      (fun (a, b) ->
        Buffer.add_string buf (Printf.sprintf "\nprefer %s > %s." a b))
      prefs;
    Buffer.contents buf

let prefer_spec kb ~obj =
  ignore (find_exn kb obj);
  let prog = to_program kb in
  Prefer.Spec.make prog (Ordered.Program.component_id_exn prog obj) kb.prefs

(* ------------------------------------------------------------------ *)
(* From-scratch answers                                                *)
(* ------------------------------------------------------------------ *)

(* Each call grounds the view afresh and caches nothing: these are the
   reference answers the serving benchmark checks the server against. *)
let ground ?budget kb ~obj =
  ignore (find_exn kb obj);
  let prog = to_program kb in
  Ordered.Gop.ground ?budget prog (Ordered.Program.component_id_exn prog obj)

let query ?budget kb ~obj l =
  if not (Literal.is_ground l) then
    invalid_arg "Kb.Store.query: literal must be ground";
  Interp.value_lit (Ordered.Vfix.least_model ?budget (ground ?budget kb ~obj)) l

let stable_models ?limit ?budget ?stats kb ~obj =
  Solve.Kernel.stable_models ?limit ?budget ?stats (ground ?budget kb ~obj)
