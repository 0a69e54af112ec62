open Logic
module Budget = Governor.Budget

(* ------------------------------------------------------------------ *)
(* The intern table                                                    *)
(* ------------------------------------------------------------------ *)

(* Keys are short int arrays, hashed and compared in OCaml: no call into
   the runtime's generic hash or compare per lookup. *)
let rec equal_from (a : int array) b i =
  i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal_key (a : int array) b =
  Array.length a = Array.length b && equal_from a b 0

(* FNV-1a over the ints, the high bits folded into the low ones a
   bucket index uses *)
let hash_key (a : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor a.(i)) * 0x100000001b3
  done;
  (!h lxor (!h lsr 31)) land max_int

module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal = equal_key
  let hash = hash_key
end)

module Str_tbl = Hashtbl.Make (String)

(* A growable array. *)
type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (max 16 (2 * v.len)) x in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

type table = {
  universe : Term.t array;  (* term ids [0 .. u-1], sorted *)
  constants_only : bool;  (* no [App] in the universe *)
  terms : Term.t vec;  (* term id -> term; the universe first *)
  extra : (Term.t, int) Hashtbl.t;  (* terms outside the universe *)
  norm : int array;  (* universe index -> its normal form's id; -1 unknown *)
  preds : (int * int) list Str_tbl.t;  (* name -> (arity, pred id) *)
  pred_names : string vec;
  mutable slots : int array;
      (* atom ids by key, open addressing from [hash_key]; -1 free; at
         most half full *)
  keys : int array vec;  (* atom id -> [| pred; arg ids |] *)
  atoms : Atom.t vec;  (* atom id -> the atom, [unbuilt] until built *)
  mutable ranks : int array;  (* pred id -> rank of its name; stale if short *)
}

let table universe =
  let universe = Array.of_list universe in
  { universe;
    constants_only =
      Array.for_all (function Term.App _ -> false | _ -> true) universe;
    terms = { data = Array.copy universe; len = Array.length universe };
    extra = Hashtbl.create 8;
    norm = Array.make (Array.length universe) (-1);
    preds = Str_tbl.create 16;
    pred_names = { data = [||]; len = 0 };
    slots = Array.make 64 (-1);
    keys = { data = [||]; len = 0 };
    atoms = { data = [||]; len = 0 };
    ranks = [||]
  }

let n_atoms tbl = tbl.keys.len
let term tbl i = tbl.terms.data.(i)

(* The universe is sorted by [Term.compare], so a member is found by
   bisection; any other term gets an id past it. *)
let term_id tbl t =
  let rec find lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Term.compare t tbl.universe.(mid) in
      if c = 0 then Some mid else if c < 0 then find lo mid else find (mid + 1) hi
  in
  match find 0 (Array.length tbl.universe) with
  | Some i -> i
  | None -> (
    match Hashtbl.find_opt tbl.extra t with
    | Some i -> i
    | None ->
      let i = vec_push tbl.terms t in
      Hashtbl.add tbl.extra t i;
      i)

let pred_id tbl p arity =
  let known = try Str_tbl.find tbl.preds p with Not_found -> [] in
  match List.assq arity known with
  | i -> i
  | exception Not_found ->
    let i = vec_push tbl.pred_names p in
    Str_tbl.replace tbl.preds p ((arity, i) :: known);
    i

let unbuilt = Atom.prop ""

(* The slot of [key]: its atom's, or the free one it would take.  Every
   candidate literal is interned here, so the table probes a flat
   [int array] instead of a [Key_tbl]'s buckets, which cost servebench's
   cold-view queries 8% (docs/PERFORMANCE.md). *)
let rec probe tbl key h =
  let a = tbl.slots.(h) in
  if a < 0 || equal_key key tbl.keys.data.(a) then h
  else probe tbl key ((h + 1) land (Array.length tbl.slots - 1))

let slot tbl key = probe tbl key (hash_key key land (Array.length tbl.slots - 1))

(* [key] is a plan's buffer: a new atom keeps a copy. *)
let intern_atom tbl (key : int array) =
  let h = slot tbl key in
  let a = tbl.slots.(h) in
  if a >= 0 then a
  else begin
    let a = vec_push tbl.keys (Array.copy key) in
    ignore (vec_push tbl.atoms unbuilt : int);
    tbl.slots.(h) <- a;
    if 2 * tbl.keys.len > Array.length tbl.slots then begin
      tbl.slots <- Array.make (2 * Array.length tbl.slots) (-1);
      for a = 0 to tbl.keys.len - 1 do
        tbl.slots.(slot tbl tbl.keys.data.(a)) <- a
      done
    end;
    a
  end

let rec args tbl key k acc =
  if k = 0 then acc else args tbl key (k - 1) (term tbl key.(k) :: acc)

let atom tbl a =
  let x = tbl.atoms.data.(a) in
  if x != unbuilt then x
  else begin
    let key = tbl.keys.data.(a) in
    let x =
      Atom.make tbl.pred_names.data.(key.(0))
        (args tbl key (Array.length key - 1) [])
    in
    tbl.atoms.data.(a) <- x;
    x
  end

(* [Term.compare] on term ids: the universe part by position. *)
let compare_terms tbl i j =
  if i = j then 0
  else
    let u = Array.length tbl.universe in
    if i < u && j < u then Int.compare i j
    else Term.compare (term tbl i) (term tbl j)

(* Predicate ranks by name (one name at two arities shares a rank),
   recomputed when a predicate was added. *)
let ranks tbl =
  let n = tbl.pred_names.len in
  if Array.length tbl.ranks <> n then begin
    let name i = tbl.pred_names.data.(i) in
    let by_name = Array.init n Fun.id in
    Array.sort (fun i j -> String.compare (name i) (name j)) by_name;
    let r = Array.make n 0 in
    Array.iteri
      (fun k p ->
        if k > 0 then
          let q = by_name.(k - 1) in
          r.(p) <- (if String.equal (name q) (name p) then r.(q) else r.(q) + 1))
      by_name;
    tbl.ranks <- r
  end;
  tbl.ranks

(* [Term.compare_lists] on the argument ids from position [k] on. *)
let rec compare_args tbl ka kb k =
  let la = Array.length ka and lb = Array.length kb in
  if k = la then if k = lb then 0 else -1
  else if k = lb then 1
  else
    let c = compare_terms tbl ka.(k) kb.(k) in
    if c <> 0 then c else compare_args tbl ka kb (k + 1)

let compare_atoms tbl a b =
  if a = b then 0
  else
    let ka = tbl.keys.data.(a) and kb = tbl.keys.data.(b) in
    let c =
      if ka.(0) = kb.(0) then 0
      else
        let r = ranks tbl in
        Int.compare r.(ka.(0)) r.(kb.(0))
    in
    if c <> 0 then c else compare_args tbl ka kb 1

let compare_lits tbl x y =
  let c = compare_atoms tbl (x lsr 1) (y lsr 1) in
  if c <> 0 then c else Int.compare (x land 1) (y land 1)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(* An argument is an [int]: a constant's term id ([>= 0]), the variable
   in slot [s] ([-1 - s]), or template [e] of [evals]
   ([-1 - n_vars - e]): a term to substitute, evaluate and intern. *)
type lit = {
  pol : bool;
  args : int array;
  buf : int array;  (* [| pred; arg ids |] of the current candidate *)
}

type step =
  | Ordinary of lit
  | Guard of { pred : string; pol : bool; l : int; r : int }

type plan = {
  vars : string array;
  evals : Term.t array;
  head : lit;
  body : step array;  (* source order *)
  n_ordinary : int;
  builtin_head : bool;
}

let rec var_slot vars v i =
  if String.equal vars.(i) v then i else var_slot vars v (i + 1)

let is_guard (l : Literal.t) =
  match l.atom.args with [ _; _ ] -> Builtin.is_builtin_literal l | _ -> false

(* What one compile accumulates: the rule's slots and its templates. *)
type builder = {
  tbl : table;
  slots : string array;
  mutable evals : Term.t list;  (* reversed *)
  mutable n_evals : int;
}

let arg b = function
  | Term.Var v -> -1 - var_slot b.slots v 0
  | (Term.Int _ | Term.Sym _) as c -> term_id b.tbl c
  | t ->
    b.evals <- t :: b.evals;
    b.n_evals <- b.n_evals + 1;
    -Array.length b.slots - b.n_evals

let rec fill_args b args k = function
  | [] -> ()
  | t :: rest ->
    args.(k) <- arg b t;
    fill_args b args (k + 1) rest

let lit b (l : Literal.t) =
  let n = List.length l.atom.args in
  let args = Array.make n 0 in
  fill_args b args 0 l.atom.args;
  let buf = Array.make (n + 1) 0 in
  buf.(0) <- pred_id b.tbl l.atom.pred n;
  { pol = l.pol; args; buf }

let step b (l : Literal.t) =
  match l.atom.args with
  | [ x; y ] when is_guard l ->
    let x = arg b x in
    Guard { pred = l.atom.pred; pol = l.pol; l = x; r = arg b y }
  | _ -> Ordinary (lit b l)

let rec fill_steps b steps k = function
  | [] -> ()
  | l :: rest ->
    steps.(k) <- step b l;
    fill_steps b steps (k + 1) rest

let compile tbl (r : Rule.t) =
  let b = { tbl; slots = Array.of_list (Rule.vars r); evals = []; n_evals = 0 } in
  let body =
    match Rule.body r with
    | [] -> [||]
    | l :: rest ->
      let steps = Array.make (1 + List.length rest) (step b l) in
      fill_steps b steps 1 rest;
      steps
  in
  let head = lit b (Rule.head r) in
  let n_ordinary = ref 0 in
  Array.iter (function Ordinary _ -> incr n_ordinary | Guard _ -> ()) body;
  { vars = b.slots;
    evals = Array.of_list (List.rev b.evals);
    head;
    body;
    n_ordinary = !n_ordinary;
    builtin_head = is_guard (Rule.head r)
  }

(* The term a template stands for under the slots. *)
let rec subst tbl plan slots = function
  | Term.Var v -> tbl.universe.(slots.(var_slot plan.vars v 0))
  | Term.App (f, args) -> Term.App (f, List.map (subst tbl plan slots) args)
  | c -> c

(* The id of an argument's normal form under the slots.  Evaluation
   follows the substitution grounder exactly: the same ground term goes
   through [Builtin.eval_term], so it raises the same [Eval_error] at the
   same point. *)
let arg_id tbl plan slots a =
  if a >= 0 then a
  else
    let s = -1 - a in
    if s < Array.length plan.vars then begin
      let i = slots.(s) in
      if tbl.constants_only then i
      else if tbl.norm.(i) >= 0 then tbl.norm.(i)
      else begin
        let id = term_id tbl (Builtin.eval_term tbl.universe.(i)) in
        tbl.norm.(i) <- id;
        id
      end
    end
    else
      let t = plan.evals.(s - Array.length plan.vars) in
      term_id tbl (Builtin.eval_term (subst tbl plan slots t))

let fill tbl plan slots l =
  for k = 0 to Array.length l.args - 1 do
    l.buf.(k + 1) <- arg_id tbl plan slots l.args.(k)
  done

let guard tbl plan slots pred pol l r =
  let l = arg_id tbl plan slots l in
  let r = arg_id tbl plan slots r in
  match Builtin.eval_comparison pred (term tbl l) (term tbl r) with
  | Some b -> b = pol
  | None -> false

let code tbl (l : lit) = (2 * intern_atom tbl l.buf) + Bool.to_int l.pol

(* One candidate: the body in source order (a guard that is false or
   does not evaluate kills it), then the head — the order in which the
   substitution grounder evaluates, so errors surface identically.  The
   atoms are interned only once the candidate survives; a dead
   candidate gives [[||]]. *)
let candidate tbl plan slots =
  let alive = ref true and i = ref 0 in
  while !alive && !i < Array.length plan.body do
    (match plan.body.(!i) with
    | Ordinary l -> fill tbl plan slots l
    | Guard { pred; pol; l; r } -> alive := guard tbl plan slots pred pol l r);
    incr i
  done;
  if not !alive then [||]
  else begin
    fill tbl plan slots plan.head;
    let key = Array.make (plan.n_ordinary + 1) 0 in
    key.(0) <- code tbl plan.head;
    let k = ref 1 in
    for i = 0 to Array.length plan.body - 1 do
      match plan.body.(i) with
      | Ordinary l ->
        key.(!k) <- code tbl l;
        incr k
      | Guard _ -> ()
    done;
    key
  end

(* The next candidate: the last slot moves fastest, the order of
   [Herbrand.instantiations]. *)
let rec advance slots u k =
  if k < 0 then false
  else if slots.(k) + 1 < u then begin
    slots.(k) <- slots.(k) + 1;
    true
  end
  else begin
    slots.(k) <- 0;
    advance slots u (k - 1)
  end

let iter ?(budget = Budget.unlimited) tbl plan emit =
  let n = Array.length plan.vars in
  let u = Array.length tbl.universe in
  let slots = Array.make n 0 in
  let more = ref (u > 0 || n = 0) in
  while !more do
    Budget.tick budget;
    if plan.builtin_head then
      invalid_arg "Grounder: builtin predicate in rule head";
    let key = candidate tbl plan slots in
    if Array.length key > 0 then emit key;
    more := advance slots u (n - 1)
  done

(* ------------------------------------------------------------------ *)
(* The naive grounder                                                  *)
(* ------------------------------------------------------------------ *)

let rule_of atom ~name (key : int array) =
  let lit code = Literal.make (code land 1 = 1) (atom (code lsr 1)) in
  let r =
    Rule.make (lit key.(0))
      (List.init (Array.length key - 1) (fun k -> lit key.(k + 1)))
  in
  match name with Some n -> Rule.with_name n r | None -> r

let naive ?(budget = Budget.unlimited) ?depth rules =
  let sg = Herbrand.signature_of_rules rules in
  let tbl = table (Herbrand.universe ?depth sg) in
  List.concat_map
    (fun r ->
      let plan = compile tbl r in
      let acc = ref [] in
      iter ~budget tbl plan (fun key ->
          acc := rule_of (atom tbl) ~name:(Rule.name r) key :: !acc);
      List.rev !acc)
    rules
  |> Rule.Set.of_list |> Rule.Set.elements
