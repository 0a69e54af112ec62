open Logic
module Gop = Ordered.Gop
module Program = Ordered.Program
module Budget = Governor.Budget

type group = {
  comp : Program.component_id;
  src : Rule.t;
  insts : Rule.t list;
}

type state = {
  gop : Gop.t;
  groups : group list;
  universe : Term.t list;
}

type fallback = [ `Universe_changed | `Shared_instance | `View_mismatch ]

let pp_fallback ppf = function
  | `Universe_changed -> Format.pp_print_string ppf "universe changed"
  | `Shared_instance -> Format.pp_print_string ppf "shared ground instance"
  | `View_mismatch -> Format.pp_print_string ppf "view shape mismatch"

let tagged_of_groups groups =
  Gop.flatten_groups (List.map (fun g -> (g.comp, g.src, g.insts)) groups)

let ground ?budget program comp =
  let groups =
    List.map
      (fun (c, src, insts) -> { comp = c; src; insts })
      (Gop.ground_groups ?budget program comp)
  in
  { gop = Gop.of_view program comp (tagged_of_groups groups);
    groups;
    universe = Gop.schema_universe program comp
  }

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

module Keys = Gop.Instance_tbl

(* Could [cand] (a surviving view rule of the same component) produce any
   of the instances we are about to drop?  If so, a scratch grounding
   would re-attribute the instance to [cand] instead of dropping it —
   the repaired grounding would diverge, so the caller must fall back.
   Instance keys carry the source rule's name, so only same-named rules
   can ever collide; the head predicate prefilter skips the
   re-instantiation in the common case.  The check itself is exact:
   re-instantiate the candidate and look its instances up. *)
let could_produce ~budget ~universe ~dropped_heads ~dropped cand =
  let h = (Rule.head cand.src).Literal.atom in
  List.mem (h.Atom.pred, List.length h.Atom.args) dropped_heads
  && List.exists
       (fun i -> Keys.mem dropped (cand.comp, i))
       (Ground.Grounder.ground_rule_instances ~budget ~universe cand.src)

(* The repaired grounding: spliced from the old one when the old atom
   ids survive, re-interned from the groups otherwise — exact either
   way. *)
let regrounded ~program ~comp state edits groups =
  match Gop.splice state.gop ~program edits with
  | Some gop -> gop
  | None -> Gop.of_view program comp (tagged_of_groups groups)

let apply_deletion ~budget ~universe ~program ~comp state steps =
  let keeps = List.filter_map (function `Keep g -> Some g | _ -> None) steps in
  let drops = List.filter_map (function `Drop g -> Some g | _ -> None) steps in
  let dropped = List.concat_map (fun g -> g.insts) drops in
  if dropped = [] then Ok ({ state with groups = keeps }, Delta.empty)
  else
    let dropped_keys = Keys.create 16 in
    List.iter
      (fun g -> List.iter (fun i -> Keys.replace dropped_keys (g.comp, i) ()) g.insts)
      drops;
    let dropped_heads =
      List.map
        (fun r ->
          let h = (Rule.head r).Literal.atom in
          (h.Atom.pred, List.length h.Atom.args))
        dropped
    in
    let dropped_name g' = List.exists (fun g -> Rule.name g.src = Rule.name g'.src) drops in
    let dropped_comps = List.map (fun g -> g.comp) drops in
    let shared =
      List.exists
        (fun g ->
          List.mem g.comp dropped_comps && dropped_name g
          && could_produce ~budget ~universe ~dropped_heads
               ~dropped:dropped_keys g)
        keeps
    in
    if shared then Error `Shared_instance
    else
      let edits =
        List.map
          (function
            | `Keep g -> Gop.Keep (List.length g.insts)
            | `Drop g -> Gop.Drop (List.length g.insts))
          steps
      in
      let gop = regrounded ~program ~comp state edits keeps in
      Ok
        ( { state with gop; groups = keeps },
          { Delta.added = []; added_rules = []; removed_rules = dropped } )

let apply_insertion ~budget ~universe ~program ~comp state steps =
  (* Rebuild the group list in view order with the shared dedup discipline
     of [Gop.ground_groups]: existing groups feed the table as-is (they
     were deduplicated under the same prefix), fresh instances of an added
     rule are kept only if unseen.  Keys carry the component, so only the
     groups of a component that receives a rule can matter. *)
  let added_comps = List.filter_map (function `Add (c, _) -> Some c | _ -> None) steps in
  let relevant g = List.mem g.comp added_comps in
  let seen = Keys.create 64 in
  let tagged =
    List.map
      (function
        | `Keep g ->
          if relevant g then List.iter (fun i -> Keys.replace seen (g.comp, i) ()) g.insts;
          (g, false)
        | `Add (c, r) ->
          let raw = Ground.Grounder.ground_rule_instances ~budget ~universe r in
          let insts =
            List.filter
              (fun i ->
                let k = (c, i) in
                if Keys.mem seen k then false
                else begin
                  Keys.add seen k ();
                  true
                end)
              raw
          in
          ({ comp = c; src = r; insts }, true))
      steps
  in
  (* A fresh instance equal to a later group's instance would, from
     scratch, be attributed to the earlier (added) rule and dropped from
     the later group — our later groups still hold theirs, so the
     groundings would diverge.  Never reachable through the store (rules
     append at the end of their component block) but checked anyway. *)
  let stolen =
    let after = Keys.create 64 in
    List.fold_left
      (fun hit (g, is_add) ->
        if not (relevant g) then hit
        else begin
          let hit =
            hit || (is_add && List.exists (fun x -> Keys.mem after (g.comp, x)) g.insts)
          in
          List.iter (fun x -> Keys.replace after (g.comp, x) ()) g.insts;
          hit
        end)
      false (List.rev tagged)
  in
  if stolen then Error `Shared_instance
  else
    let added_rules =
      List.concat_map (fun (g, is_add) -> if is_add then g.insts else []) tagged
    in
    let groups = List.map fst tagged in
    if added_rules = [] then Ok ({ state with groups }, Delta.empty)
    else
      let edits =
        List.map
          (fun (g, is_add) ->
            if is_add then Gop.Insert (List.map (fun i -> (g.comp, i)) g.insts)
            else Gop.Keep (List.length g.insts))
          tagged
      in
      let gop = regrounded ~program ~comp state edits groups in
      (* indices of the added instances in the flattened rule array *)
      let added = ref [] in
      let off = ref 0 in
      List.iter
        (fun (g, is_add) ->
          if is_add then
            List.iteri (fun k _ -> added := (!off + k) :: !added) g.insts;
          off := !off + List.length g.insts)
        tagged;
      Ok
        ( { state with gop; groups },
          { Delta.added = List.rev !added;
            added_rules;
            removed_rules = []
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
  match del_diff [] state.groups view with
  | Some steps ->
    let dropped = List.filter_map (function `Drop g -> Some g.src | _ -> None) steps in
    if not (kept (`Deleted dropped)) then Error `Universe_changed
    else apply_deletion ~budget ~universe ~program ~comp state steps
  | None -> (
    match ins_diff [] state.groups view with
    | Some steps ->
      let added = List.filter_map (function `Add (_, r) -> Some r | _ -> None) steps in
      if not (kept (`Inserted added)) then Error `Universe_changed
      else apply_insertion ~budget ~universe ~program ~comp state steps
    | None ->
      if kept `Other then Error `View_mismatch else Error `Universe_changed)
