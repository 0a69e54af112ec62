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
  mutable cache : (string * Ordered.Gop.t) list;  (** invalidated on change *)
  mutable pcache : (string * Ordered.Gop.t) list;
      (** compiled preference groundings, invalidated on change *)
}

let create () =
  { objs = []; latest = []; version_count = []; prefs = []; cache = [];
    pcache = [] }

let invalidate kb =
  kb.cache <- [];
  kb.pcache <- []

let find kb name = List.find_opt (fun o -> String.equal o.name name) kb.objs

let find_exn kb name =
  match find kb name with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Kb: unknown object %S" name)

let define kb ?(isa = []) name rules =
  if find kb name <> None then
    invalid_arg (Printf.sprintf "Kb.define: duplicate object %S" name);
  List.iter (fun p -> ignore (find_exn kb p)) isa;
  kb.objs <- { name; parents = isa; rules } :: kb.objs;
  invalidate kb

let define_src kb ?isa name src =
  define kb ?isa name (Lang.Parser.parse_rules src)

let load kb src =
  let ast = Lang.Parser.parse_file src in
  let comps = Lang.Ast.components ast in
  (* Definition order may reference later parents; insert objects first,
     then wire parents. *)
  List.iter
    (fun (c : Lang.Ast.component) ->
      if find kb c.name <> None then
        invalid_arg (Printf.sprintf "Kb.load: duplicate object %S" c.name);
      kb.objs <- { name = c.name; parents = []; rules = c.rules } :: kb.objs)
    comps;
  List.iter
    (fun (lo, hi) ->
      ignore (find_exn kb hi);
      let o = find_exn kb lo in
      if not (List.mem hi o.parents) then o.parents <- o.parents @ [ hi ])
    (Lang.Ast.order_pairs ast);
  let fresh =
    List.filter
      (fun p -> not (List.mem p kb.prefs))
      (Lang.Ast.prefer_pairs ast)
  in
  if fresh <> [] then begin
    Prefer.Spec.check_pairs (kb.prefs @ fresh);
    kb.prefs <- kb.prefs @ fresh
  end;
  invalidate kb

let add_rule kb ~obj r =
  let o = find_exn kb obj in
  o.rules <- o.rules @ [ r ];
  invalidate kb

let add_rule_src kb ~obj src = add_rule kb ~obj (Lang.Parser.parse_rule src)
let add_fact kb ~obj l = add_rule kb ~obj (Rule.fact l)

let remove_rule kb ~obj r =
  let o = find_exn kb obj in
  let before = List.length o.rules in
  o.rules <- List.filter (fun r' -> not (Rule.equal r r')) o.rules;
  let removed = List.length o.rules < before in
  if removed then invalidate kb;
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
    kb.prefs <- kb.prefs @ [ pair ];
    invalidate kb
  end

let clear_preference kb ~rule ~over =
  let pair = (rule, over) in
  let present = List.mem pair kb.prefs in
  if present then begin
    kb.prefs <- List.filter (fun p -> p <> pair) kb.prefs;
    invalidate kb
  end;
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
  { objs =
      List.rev_map
        (fun (name, parents, rules) -> { name; parents; rules })
        d.dump_objs;
    latest = d.dump_latest;
    version_count = d.dump_counts;
    prefs = d.dump_prefs;
    cache = [];
    pcache = []
  }

(* A deep copy down to the per-object mutable fields: the clone and the
   original share rule/parent list structure (immutable), but mutating
   either store never changes what the other observes.  The gop cache is
   not copied — it is an optimisation, not state. *)
let copy kb = of_dump (dump kb)

let restore kb d =
  let fresh = of_dump d in
  kb.objs <- fresh.objs;
  kb.latest <- fresh.latest;
  kb.version_count <- fresh.version_count;
  kb.prefs <- fresh.prefs;
  invalidate kb

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

let pp_mutation ppf =
  let rules ppf rs =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
      Rule.pp ppf rs
  in
  function
  | Define { name; isa; rules = rs } ->
    Format.fprintf ppf "define %s isa [%s] { %a }" name
      (String.concat ", " isa) rules rs
  | Add_rule { obj; rule } -> Format.fprintf ppf "add_rule %s %a" obj Rule.pp rule
  | Remove_rule { obj; rule } ->
    Format.fprintf ppf "remove_rule %s %a" obj Rule.pp rule
  | New_version { name; rules = None } ->
    Format.fprintf ppf "new_version %s" name
  | New_version { name; rules = Some rs } ->
    Format.fprintf ppf "new_version %s { %a }" name rules rs
  | Load { src } -> Format.fprintf ppf "load %d byte(s)" (String.length src)
  | Set_preference { rule; over } ->
    Format.fprintf ppf "set_preference %s > %s" rule over
  | Clear_preference { rule; over } ->
    Format.fprintf ppf "clear_preference %s > %s" rule over

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let to_program kb =
  let comps =
    List.rev_map (fun o -> (o.name, o.rules)) kb.objs
  in
  let pairs =
    List.concat_map
      (fun o -> List.map (fun p -> (o.name, p)) o.parents)
      (List.rev kb.objs)
  in
  Ordered.Program.make_exn comps pairs

let gop ?budget kb ~obj =
  ignore (find_exn kb obj);
  match List.assoc_opt obj kb.cache with
  | Some g -> g
  | None ->
    let prog = to_program kb in
    let g =
      Ordered.Gop.ground ?budget prog
        (Ordered.Program.component_id_exn prog obj)
    in
    kb.cache <- (obj, g) :: kb.cache;
    g

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

let least_model ?budget kb ~obj =
  Ordered.Vfix.least_model ?budget (gop ?budget kb ~obj)

let query ?budget kb ~obj l =
  if not (Literal.is_ground l) then
    invalid_arg "Kb.query: literal must be ground";
  Interp.value_lit (least_model ?budget kb ~obj) l

let query_src ?budget kb ~obj src =
  query ?budget kb ~obj (Lang.Parser.parse_literal src)

let stable_models ?limit ?budget ?stats kb ~obj =
  Solve.Kernel.stable_models ?limit ?budget ?stats (gop ?budget kb ~obj)

let assumption_free_models ?limit ?budget ?stats kb ~obj =
  Solve.Kernel.assumption_free_models ?limit ?budget ?stats
    (gop ?budget kb ~obj)

let explain kb ~obj l = Ordered.Explain.explain (gop kb ~obj) l

(* ------------------------------------------------------------------ *)
(* Preferred models                                                    *)
(* ------------------------------------------------------------------ *)

let prefer_spec kb ~obj =
  ignore (find_exn kb obj);
  let prog = to_program kb in
  Prefer.Spec.make prog (Ordered.Program.component_id_exn prog obj) kb.prefs

(* The compiled grounding is cached like the plain one. *)
let prefer_gop ?budget kb ~obj =
  ignore (find_exn kb obj);
  match List.assoc_opt obj kb.pcache with
  | Some g -> g
  | None ->
    let g =
      Prefer.Compile.gop ?budget (Prefer.Compile.compile (prefer_spec kb ~obj))
    in
    kb.pcache <- (obj, g) :: kb.pcache;
    g

let preferred_models ?limit ?budget ?stats kb ~obj =
  Solve.Kernel.stable_models ?limit ?budget ?stats (prefer_gop ?budget kb ~obj)
