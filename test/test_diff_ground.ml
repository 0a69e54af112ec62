(* Differential testing of grounding by plans against the substitution
   grounder it replaced (Oracle.Ground, over Datalog.Grounder.instances):

   - [Gop.ground] equals [Gop.of_view] over the oracle's deduplicated
     instances, field by field (the diff-inc comparator): atoms in id
     order, every ground rule and adjacency row; an evaluation error or
     an instance-cap overflow is raised by both, with the same payload,
     after the same number of budget ticks;
   - [Gop.ground_groups]' groups decode (keys over the gop's atoms) to
     exactly the oracle's instance lists, source-order bodies included,
     and its schema universe is that of the view rules' signature;
   - [Ground.Grounder.naive] equals the oracle's naive grounding;
   - a repaired grounding (one rule added to, then removed from, a
     random component) equals scratch grounding, provenance keys and
     the carried schema universe included.

   The programs mix multi-variable rules and repeated variables,
   builtins that hold, fail or do not evaluate, arithmetic in ordinary
   literals (division and modulo by zero included), function symbols
   grounded at depth 1-2, named rules, instances duplicated within and
   across components, ground facts, and views with no constant at all
   (the [a0] universe).  Iteration counts scale with FUZZ_ITERS (wired
   as diff-ground in the Makefile). *)

open Logic
open Helpers
module Gen = QCheck2.Gen
module B = Ordered.Budget
module G = Ordered.Gop

let iters base =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > base -> n
    | _ -> base)
  | None -> base

(* ------------------------------------------------------------------ *)
(* Random programs                                                     *)
(* ------------------------------------------------------------------ *)

type shape = {
  src : string;
  depth : int;
  extra : string;  (* a rule to add to a component, then remove *)
}

let gen_var = Gen.oneofl [ "X"; "Y"; "Z" ]

(* [consts]: the constant pool (empty for a constant-free program);
   [funs]: function terms may appear; [arith]: arithmetic may appear. *)
let gen_term ~consts ~funs ~arith =
  let base =
    if consts = [] then gen_var
    else Gen.(frequency [ (3, gen_var); (2, oneofl consts) ])
  in
  let wrapped =
    List.concat
      [ (if funs then
           [ (1, Gen.map (Printf.sprintf "f(%s)") base);
             (1, Gen.map (Printf.sprintf "g(f(%s))") gen_var)
           ]
         else []);
        (if arith then
           [ (1, Gen.map (Printf.sprintf "%s + 1") gen_var);
             (1, Gen.map (Printf.sprintf "%s * 2") gen_var);
             (1,
              Gen.map2 (Printf.sprintf "%s / %s") gen_var
                (Gen.oneofl [ "2"; "0" ]));
             (1, Gen.map (Printf.sprintf "%s mod 0") gen_var)
           ]
         else [])
      ]
  in
  Gen.frequency ((8, base) :: wrapped)

let gen_atom ~consts ~funs ~arith =
  let t = gen_term ~consts ~funs ~arith in
  Gen.(
    oneof
      [ return "s";
        map (Printf.sprintf "p(%s)") t;
        map (Printf.sprintf "q(%s)") t;
        map2 (Printf.sprintf "r(%s, %s)") t t;
        map (fun v -> Printf.sprintf "r(%s, %s)" v v) gen_var
      ])

let gen_lit ~consts ~funs ~arith =
  Gen.map2
    (fun neg a -> if neg then "-" ^ a else a)
    Gen.bool (gen_atom ~consts ~funs ~arith)

(* true, false or not evaluable, depending on the instance *)
let gen_builtin ~consts =
  let side =
    if consts = [] then gen_var
    else Gen.(frequency [ (3, gen_var); (1, oneofl consts) ])
  in
  Gen.(
    map3
      (fun l op r -> Printf.sprintf "%s %s %s" l op r)
      side
      (oneofl [ "<"; ">"; "<="; ">="; "="; "!=" ])
      side
    |> fun g ->
    frequency [ (4, g); (1, map (fun b -> "not " ^ b) g) ])

let gen_rule ~consts ~funs ~arith =
  let lit = gen_lit ~consts ~funs ~arith in
  Gen.(
    map3
      (fun name head body ->
        let body = List.filter (fun s -> s <> "") body in
        Printf.sprintf "%s%s%s."
          (match name with Some n -> n ^ " : " | None -> "")
          head
          (if body = [] then "" else " :- " ^ String.concat ", " body))
      (frequency [ (4, return None); (1, map Option.some (oneofl [ "n1"; "n2" ])) ])
      lit
      (list_size (int_bound 3)
         (frequency [ (4, lit); (1, gen_builtin ~consts); (1, return "") ])))

let gen_shape =
  Gen.(
    let* consts =
      frequency
        [ (1, return []);
          (3,
           map (List.sort_uniq compare)
             (list_size (int_range 1 3) (oneofl [ "a"; "b"; "1"; "2" ])))
        ]
    in
    let* funs = bool in
    let* arith = frequency [ (3, return false); (1, return true) ] in
    let* depth = if funs || arith then int_bound 2 else return 0 in
    let rule = gen_rule ~consts ~funs ~arith in
    (* a small pool, so that rules repeat within and across components *)
    let* pool = list_size (int_range 1 5) rule in
    let pick = oneofl pool in
    let* n_comps = int_range 1 3 in
    let* chain = bool in
    let* comps =
      flatten_l
        (List.init n_comps (fun i ->
             list_size (int_bound 4) pick |> map (fun rs -> (i, rs))))
    in
    let* extra = pick in
    let comp (i, rs) =
      Printf.sprintf "component c%d%s { %s }" i
        (if i = 0 then ""
         else if chain then Printf.sprintf " extends c%d" (i - 1)
         else " extends c0")
        (String.concat " " rs)
    in
    return { src = String.concat "\n" (List.map comp comps); depth; extra })

(* Keep the cross products small: lower the depth while some rule would
   have more than [limit] candidates. *)
let fit_depth p depth =
  let limit = 3000 in
  let rules = Ordered.Program.all_rules p in
  let max_vars =
    List.fold_left (fun m r -> max m (List.length (Rule.vars r))) 0 rules
  in
  let rec go d =
    if d = 0 then 0
    else
      let sg = Herbrand.signature_of_rules rules in
      let u = List.length (Herbrand.universe ~depth:d sg) in
      if float_of_int u ** float_of_int max_vars <= float_of_int limit then d
      else go (d - 1)
  in
  go depth

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)
(* ------------------------------------------------------------------ *)

(* The result of a grounding, or the exception it raised, with the
   budget ticks it took. *)
let run f =
  let budget = B.make () in
  let r = try Ok (f budget) with e -> Error e in
  (r, B.steps budget)

let same_outcome eq (r1, s1) (r2, s2) =
  s1 = s2
  &&
  match (r1, r2) with
  | Ok a, Ok b -> eq a b
  | Error e1, Error e2 -> e1 = e2
  | _ -> false

let views p = List.init (Ordered.Program.n_components p) Fun.id

let decode (g : G.t) (grp : G.group) =
  Array.to_list
    (Array.map
       (Ground.Grounder.rule_of (fun a -> g.G.atoms.(a)) ~name:(Rule.name grp.G.src))
       grp.G.keys)

let groups_match (st : G.grounded) oracle =
  List.length st.G.groups = List.length oracle
  && List.for_all2
       (fun (grp : G.group) (c, src, insts) ->
         grp.G.comp = c && Rule.equal grp.G.src src
         && List.equal Rule.equal (decode st.G.gop grp) insts)
       st.G.groups oracle

let keys_equal (a : G.grounded) (b : G.grounded) =
  List.equal
    (fun (x : G.group) (y : G.group) -> x.G.keys = y.G.keys)
    a.G.groups b.G.groups

let print_shape s = Printf.sprintf "depth %d\n%s\n+ %s" s.depth s.src s.extra

let program_of s =
  match Ordered.Program.parse s.src with
  | Ok p -> Some (p, fit_depth p s.depth)
  | Error _ -> None

let prop_gop_equals_oracle =
  qcheck ~count:(iters 300) ~print:print_shape
    "plan grounding = of_view over the substitution grounder's instances"
    gen_shape
    (fun s ->
      match program_of s with
      | None -> QCheck2.assume_fail ()
      | Some (p, depth) ->
        List.for_all
          (fun c ->
            let plan = run (fun budget -> G.ground ~budget ~depth p c) in
            let oracle = run (fun budget -> Oracle.Ground.gop ~budget ~depth p c) in
            same_outcome Test_diff_inc.gop_equal plan oracle
            &&
            (* the instance cap: same rule, same count, same universe *)
            let cap = 1 + (Hashtbl.hash s.src mod 8) in
            same_outcome Test_diff_inc.gop_equal
              (run (fun budget -> G.ground ~budget ~max_instances:cap ~depth p c))
              (run (fun budget ->
                   Oracle.Ground.gop ~budget ~max_instances:cap ~depth p c))
            &&
            match fst plan with
            | Error _ -> true
            | Ok _ ->
              let st = G.ground_groups ~depth p c in
              groups_match st (Oracle.Ground.groups ~depth p c)
              && List.equal Term.equal st.G.universe
                   (Herbrand.universe ~depth
                      (Herbrand.signature_of_rules
                         (List.map snd (Ordered.Program.view p c)))))
          (views p))

let prop_naive_equals_oracle =
  qcheck ~count:(iters 300) ~print:print_shape
    "Grounder.naive = the substitution grounder" gen_shape (fun s ->
      match program_of s with
      | None -> QCheck2.assume_fail ()
      | Some (p, depth) ->
        let rules = Ordered.Program.all_rules p in
        same_outcome (List.equal Rule.equal)
          (run (fun budget -> Ground.Grounder.naive ~budget ~depth rules))
          (run (fun budget -> Oracle.Ground.naive ~budget ~depth rules)))

(* A repair may raise only what grounding the new program from scratch
   raises (an evaluation error in a rule it instantiates). *)
let raises p c =
  match Inc.Reground.ground p c with exception _ -> true | _ -> false

let prop_reground_keys =
  qcheck ~count:(iters 300) ~print:print_shape
    "reground by plans = scratch grounding, provenance keys included"
    gen_shape
    (fun s ->
      let extra = try Some (Lang.Parser.parse_rule s.extra) with _ -> None in
      match (program_of s, extra) with
      | None, _ | _, None -> QCheck2.assume_fail ()
      | Some (p, _), Some extra ->
        let target = Hashtbl.hash s.src mod Ordered.Program.n_components p in
        let p2 = Ordered.Program.add_rules p target [ extra ] in
        let agree c st p =
          let scratch = Inc.Reground.ground p c in
          Test_diff_inc.gop_equal st.G.gop scratch.G.gop
          && keys_equal st scratch
          && List.equal Term.equal st.G.universe scratch.G.universe
        in
        List.for_all
          (fun c ->
            match Inc.Reground.ground p c with
            | exception _ -> true
            | st1 -> (
              match Inc.Reground.reground st1 ~program:p2 with
              | exception _ -> raises p2 c
              | Error _ -> true
              | Ok (st2, _) -> (
                agree c st2 p2
                &&
                match Inc.Reground.reground st2 ~program:p with
                | exception _ -> false
                | Error _ -> true
                | Ok (st1', _) -> agree c st1' p)))
          (views p))

let suite =
  [ prop_gop_equals_oracle; prop_naive_equals_oracle; prop_reground_keys ]
