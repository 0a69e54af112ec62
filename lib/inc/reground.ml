open Logic
module Gop = Ordered.Gop
module Program = Ordered.Program
module Budget = Governor.Budget
module G = Ground.Grounder

type group = Gop.group = {
  comp : Program.component_id;
  src : Rule.t;
  keys : int array array;
}

type state = Gop.grounded = {
  gop : Gop.t;
  groups : group list;
  universe : Term.t list;
}

type fallback = [ `Universe_changed | `Shared_instance | `View_mismatch ]

let ground ?budget program comp = Gop.ground_groups ?budget program comp

(* The two one-sided greedy alignments of the cached groups against the
   mutated view.  A store mutation either appends one rule to one object
   or removes every occurrence of one rule from one object, so the new
   view is the old one with pure insertions or pure deletions; anything
   else is a shape mismatch and falls back to scratch grounding. *)

let heads_match g (c, r) = g.comp = c && (g.src == r || Rule.compare g.src r = 0)

(* new view ⊆ old groups: unmatched groups are deletions *)
let rec del_diff acc groups view =
  match (groups, view) with
  | [], [] -> Some (List.rev acc)
  | g :: gs, v :: vs when heads_match g v -> del_diff (`Keep g :: acc) gs vs
  | g :: gs, vs -> del_diff (`Drop g :: acc) gs vs
  | [], _ :: _ -> None

(* old groups ⊆ new view: unmatched view rules are insertions *)
let rec ins_diff acc groups view =
  match (groups, view) with
  | [], [] -> Some (List.rev acc)
  | g :: gs, v :: vs when heads_match g v -> ins_diff (`Keep g :: acc) gs vs
  | gs, (c, r) :: vs -> ins_diff (`Add (c, r) :: acc) gs vs
  | _ :: _, [] -> None

module Keys = Gop.Instance_keys

let head_pred (r : Rule.t) =
  let h = (Rule.head r).Literal.atom in
  (h.Atom.pred, List.length h.Atom.args)

(* Rules instantiated during one repair, as keys over the old
   grounding's atom ids: an atom it lacks gets an id from [n_atoms old]
   up, in first-seen order — so new keys compare with the cached ones by
   integer equality. *)
type scope = {
  tbl : G.table;
  old : Gop.t;
  ext : (int, int) Hashtbl.t;  (* plan atom id -> scope id *)
  mutable fresh : Atom.t list;  (* atoms past [n_atoms old], reversed *)
  mutable n_fresh : int;
}

let scope universe old =
  { tbl = G.table universe; old; ext = Hashtbl.create 16; fresh = []; n_fresh = 0 }

let scope_id s p =
  match Hashtbl.find_opt s.ext p with
  | Some i -> i
  | None ->
    let a = G.atom s.tbl p in
    let i =
      match Gop.atom_id s.old a with
      | Some i -> i
      | None ->
        s.fresh <- a :: s.fresh;
        s.n_fresh <- s.n_fresh + 1;
        Gop.n_atoms s.old + s.n_fresh - 1
    in
    Hashtbl.add s.ext p i;
    i

let instances ~budget s r =
  let acc = ref [] in
  G.iter ~budget s.tbl (G.compile s.tbl r) (fun key ->
      Array.iteri
        (fun k code -> key.(k) <- (2 * scope_id s (code lsr 1)) + (code land 1))
        key;
      acc := key :: !acc);
  List.rev !acc

(* Could [cand] (a surviving view rule of the same component and name)
   produce any of the instances we are about to drop?  If so, a scratch
   grounding would re-attribute the instance to [cand] instead of
   dropping it — the repaired grounding would diverge, so the caller
   must fall back.  The head predicate prefilter skips the
   re-instantiation in the common case.  The check itself is exact:
   re-instantiate the candidate and look its keys up. *)
let could_produce ~budget s ~dropped_heads ~dropped cand =
  List.mem (head_pred cand.src) dropped_heads
  && List.exists (Keys.mem dropped cand.comp cand.src) (instances ~budget s cand.src)

(* [g]'s keys over the repaired grounding's atom ids ([map] is the
   splice's); [g] itself when the splice kept every id it names. *)
let remap_keys map (g : group) =
  let moved = ref false in
  for i = 0 to Array.length g.keys - 1 do
    let key = g.keys.(i) in
    for k = 0 to Array.length key - 1 do
      if map.(key.(k) lsr 1) <> key.(k) lsr 1 then moved := true
    done
  done;
  if not !moved then g
  else
    { g with
      keys =
        Array.map
          (Array.map (fun code -> (2 * map.(code lsr 1)) + (code land 1)))
          g.keys
    }

(* The head atoms of [keys] that [map] keeps, as ids in the repaired
   grounding, onto [acc] (with repeats: the caller sorts them out). *)
let heads map keys acc =
  Array.fold_left
    (fun acc key ->
      let a = map.(key.(0) lsr 1) in
      if a >= 0 then a :: acc else acc)
    acc keys

(* [steps] as a splice script, [edit] giving each step's edit: runs of
   kept groups merge into one [Keep], so the script's length is the
   number of edited groups, not the view's. *)
let script edit steps =
  let flush acc run = if run > 0 then Gop.Keep run :: acc else acc in
  let rec go acc run = function
    | [] -> List.rev (flush acc run)
    | s :: rest -> (
      match edit s with
      | Gop.Keep k -> go acc (run + k) rest
      | e -> go (e :: flush acc run) 0 rest)
  in
  go [] 0 steps

let apply_deletion ~budget ~universe ~program state steps =
  let keeps = List.filter_map (function `Keep g -> Some g | _ -> None) steps in
  let drops = List.filter_map (function `Drop g -> Some g | _ -> None) steps in
  if List.for_all (fun g -> g.keys = [||]) drops then
    Ok ({ state with groups = keeps }, Delta.empty)
  else
    let old = state.gop in
    let dropped = Keys.create () in
    List.iter (fun g -> Array.iter (Keys.add dropped g.comp g.src) g.keys) drops;
    let dropped_heads = List.map (fun g -> head_pred g.src) drops in
    let s = lazy (scope universe old) in
    let shared =
      List.exists
        (fun g ->
          Keys.has_class dropped g.comp g.src
          && could_produce ~budget (Lazy.force s) ~dropped_heads ~dropped g)
        keeps
    in
    if shared then Error `Shared_instance
    else
      let edits =
        script
          (function
            | `Keep g -> Gop.Keep (Array.length g.keys)
            | `Drop g -> Gop.Drop (Array.length g.keys))
          steps
      in
      let gop, map = Gop.splice old ~program ~fresh:[||] edits in
      Ok
        ( { state with gop; groups = List.map (remap_keys map) keeps },
          { Delta.added = [];
            removed = List.fold_left (fun n g -> n + Array.length g.keys) 0 drops;
            seeds =
              List.sort_uniq Int.compare
                (List.fold_left (fun acc g -> heads map g.keys acc) [] drops)
          } )

(* Is [g] of the class (component, rule name) of some rule in [added]?
   A recursive function rather than [List.exists], so that asking it of
   every group allocates no closure. *)
let rec same_class added g =
  match added with
  | [] -> false
  | (c, r) :: rest ->
    (c = g.comp && Rule.name r = Rule.name g.src) || same_class rest g

let apply_insertion ~budget ~universe ~program state steps =
  (* Rebuild the group list in view order with the shared dedup
     discipline of [Gop.ground_groups]: existing groups feed the table
     as-is (they were deduplicated under the same prefix), fresh
     instances of an added rule are kept only if unseen.  Keys carry the
     component and the rule name, so only the groups of an added rule's
     class can matter. *)
  let added = List.filter_map (function `Add a -> Some a | _ -> None) steps in
  let relevant g = same_class added g in
  let s = scope universe state.gop in
  let seen = Keys.create () in
  let tagged =
    List.map
      (function
        | `Keep g ->
          if relevant g then Array.iter (Keys.add seen g.comp g.src) g.keys;
          (g, false)
        | `Add (c, r) ->
          let keys = List.filter (Keys.fresh seen c r) (instances ~budget s r) in
          ({ comp = c; src = r; keys = Array.of_list keys }, true))
      steps
  in
  (* A fresh instance equal to a later group's instance would, from
     scratch, be attributed to the earlier (added) rule and dropped from
     the later group — our later groups still hold theirs, so the
     groundings would diverge.  Never reachable through the store (rules
     append at the end of their component block) but checked anyway. *)
  let stolen =
    let after = Keys.create () in
    List.fold_left
      (fun hit (g, is_add) ->
        let hit =
          hit || (is_add && Array.exists (Keys.mem after g.comp g.src) g.keys)
        in
        Array.iter (Keys.add after g.comp g.src) g.keys;
        hit)
      false
      (List.rev (List.filter (fun (g, _) -> relevant g) tagged))
  in
  if stolen then Error `Shared_instance
  else if List.for_all (fun (g, is_add) -> (not is_add) || g.keys = [||]) tagged
  then Ok ({ state with groups = List.map fst tagged }, Delta.empty)
  else
    let edits =
      script
        (fun (g, is_add) ->
          if is_add then Gop.Insert g else Gop.Keep (Array.length g.keys))
        tagged
    in
    let gop, map =
      Gop.splice state.gop ~program ~fresh:(Array.of_list (List.rev s.fresh)) edits
    in
    (* the indices of the added instances in the flattened rule array,
       and their heads *)
    let added = ref [] and seeds = ref [] in
    let off = ref 0 in
    List.iter
      (fun (g, is_add) ->
        let n = Array.length g.keys in
        if is_add then begin
          for k = 0 to n - 1 do
            added := (!off + k) :: !added
          done;
          seeds := heads map g.keys !seeds
        end;
        off := !off + n)
      tagged;
    Ok
      ( { state with gop; groups = List.map (fun (g, _) -> remap_keys map g) tagged },
        { Delta.added = List.rev !added;
          removed = 0;
          seeds = List.sort_uniq Int.compare !seeds
        } )

(* The constants a rule mentions, as [Herbrand.signature_of_rules]
   collects them (without its [a0] placeholder). *)
let rule_constants (r : Rule.t) =
  let rec term acc = function
    | Term.Var _ -> acc
    | (Term.Int _ | Term.Sym _) as c -> Term.Set.add c acc
    | Term.App (_, args) -> List.fold_left term acc args
  in
  List.fold_left
    (fun acc (l : Literal.t) -> List.fold_left term acc l.Literal.atom.Atom.args)
    Term.Set.empty
    (Rule.head r :: Rule.body r)

(* Does the edit keep the view's schema universe?  At depth 0 the
   universe is the view's constants, or [a0] when it has none, so the
   edit alone decides two cases exactly: an insertion whose constants
   are all in the old universe adds none (with the [a0] placeholder the
   only constant it can bring is [a0] itself), and a deletion of
   constant-free rules removes none.  Any other edit compares against
   the universe recomputed over the whole new view. *)
let universe_kept ~program ~comp state = function
  | `Inserted rules
    when List.for_all
           (fun r ->
             Term.Set.for_all
               (fun c -> List.exists (Term.equal c) state.universe)
               (rule_constants r))
           rules ->
    true
  | `Deleted rules
    when List.for_all (fun r -> Term.Set.is_empty (rule_constants r)) rules ->
    true
  | _ ->
    List.equal Term.equal (Gop.schema_universe program comp) state.universe

let reground ?(budget = Budget.unlimited) state ~program =
  let comp = state.gop.Gop.comp in
  let view = Program.view program comp in
  let universe = state.universe in
  let kept edit = universe_kept ~program ~comp state edit in
  (* a view longer than the groups cannot be a deletion *)
  let shorter = List.compare_lengths view state.groups <= 0 in
  match if shorter then del_diff [] state.groups view else None with
  | Some steps ->
    let dropped = List.filter_map (function `Drop g -> Some g.src | _ -> None) steps in
    if not (kept (`Deleted dropped)) then Error `Universe_changed
    else apply_deletion ~budget ~universe ~program state steps
  | None -> (
    match ins_diff [] state.groups view with
    | Some steps ->
      let added = List.filter_map (function `Add (_, r) -> Some r | _ -> None) steps in
      if not (kept (`Inserted added)) then Error `Universe_changed
      else apply_insertion ~budget ~universe ~program state steps
    | None ->
      if kept `Other then Error `View_mismatch else Error `Universe_changed)
