open Logic

(* Branch atoms: atoms that occur as rule heads with the polarities they
   occur with.  Atoms already decided by the least fixpoint are fixed, and
   an assumption-free model consists solely of head literals, so nothing
   else can ever be defined. *)
let branch_space (g : Gop.t) seed =
  let n = Gop.n_atoms g in
  let pos_head = Array.make n false in
  let neg_head = Array.make n false in
  Array.iter
    (fun (r : Gop.grule) ->
      if r.head_pol then pos_head.(r.head) <- true
      else neg_head.(r.head) <- true)
    g.Gop.rules;
  List.filter_map
    (fun a ->
      if Gop.Values.defined seed a then None
      else
        match pos_head.(a), neg_head.(a) with
        | false, false -> None
        | p, n -> Some (a, p, n))
    (List.init n Fun.id)

(* Fail-first branch ordering: decide the most constrained atoms first.
   The static score is the atom's occurrence count over rule heads and
   bodies — the more rules mention an atom, the more propagation and
   conflict detection a decision on it triggers.  Ties break on the atom
   id, keeping the whole enumeration deterministic. *)
let order_branch (g : Gop.t) branch =
  let occ = Array.make (Gop.n_atoms g) 0 in
  Array.iter
    (fun (r : Gop.grule) ->
      occ.(r.head) <- occ.(r.head) + 1;
      Array.iter (fun (a, _) -> occ.(a) <- occ.(a) + 1) r.body)
    g.Gop.rules;
  List.sort
    (fun (a, _, _) (b, _, _) -> compare (-occ.(a), a) (-occ.(b), b))
    branch

(* Support pruning: a decided literal needs at least one rule about it
   that could still be applied in some extension of the current partial
   assignment — not blocked, and no body atom frozen to undefined.  Both
   conditions are monotone along a branch (false values and frozen atoms
   persist), so once the last such rule dies the literal can never be
   grounded by the enabled version: the subtree holds no assumption-free
   model.  Seed and propagated literals are exempt — the rule that derived
   them stays applicable and unsuppressed in every extension. *)
let groundable (g : Gop.t) ~frozen v a pol =
  List.exists
    (fun i ->
      let r = g.Gop.rules.(i) in
      r.head_pol = pol
      && Array.for_all
           (fun (b, bp) ->
             match Status.lit_value v (b, bp) with
             | Interp.True -> true
             | Interp.False -> false
             | Interp.Undefined -> not frozen.(b))
           r.body)
    g.Gop.by_head.(a)

type search = {
  g : Gop.t;
  branch : (int * bool * bool) array;
  budget : Budget.t;
  stats : Counters.t;
  dec : Gop.Values.t;  (** least-fixpoint seed + current decisions *)
  frozen : bool array;  (** atoms decided to stay undefined *)
  mutable decided : (int * bool) list;  (** explicit true/false decisions *)
  full : unit -> bool;
  emit : Gop.Values.t -> unit;
}

(* One search node: re-run the counting engine from the decisions, prune
   on conflict or lost support, skip branch atoms the propagation already
   forced, and otherwise branch three ways on the next open atom —
   undefined first, then true, then false, so the first leaf reached is
   the least model, as in the naive enumeration. *)
let rec node s i =
  Budget.tick s.budget;
  s.stats.nodes <- s.stats.nodes + 1;
  if not (s.full ()) then begin
    match
      Vfix.propagate ~budget:s.budget ~frozen:(fun a -> s.frozen.(a)) s.g s.dec
    with
    | Error _ -> s.stats.prunes <- s.stats.prunes + 1
    | Ok v ->
      if
        not
          (List.for_all
             (fun (a, pol) -> groundable s.g ~frozen:s.frozen v a pol)
             s.decided)
      then s.stats.prunes <- s.stats.prunes + 1
      else begin
        let n = Array.length s.branch in
        let rec next j =
          if j >= n then None
          else
            let a, _, _ = s.branch.(j) in
            if Gop.Values.defined v a then begin
              if not (Gop.Values.defined s.dec a) then
                s.stats.forced <- s.stats.forced + 1;
              next (j + 1)
            end
            else if s.frozen.(a) then next (j + 1)
            else Some j
        in
        match next i with
        | None ->
          s.stats.leaves <- s.stats.leaves + 1;
          s.emit v
        | Some j ->
          let a, can_pos, can_neg = s.branch.(j) in
          s.frozen.(a) <- true;
          node s (j + 1);
          s.frozen.(a) <- false;
          if can_pos then begin
            Gop.Values.set s.dec a true;
            s.decided <- (a, true) :: s.decided;
            node s (j + 1);
            s.decided <- List.tl s.decided;
            Gop.Values.unset s.dec a
          end;
          if can_neg then begin
            Gop.Values.set s.dec a false;
            s.decided <- (a, false) :: s.decided;
            node s (j + 1);
            s.decided <- List.tl s.decided;
            Gop.Values.unset s.dec a
          end
      end
  end

let assumption_free_models ?limit ?(budget = Budget.unlimited) ?stats
    (g : Gop.t) =
  (* Anytime: exhaustion mid-search (at a node or inside a propagation)
     surrenders the models found so far, tagged with the reason.  The
     search order is deterministic, so a partial result is a prefix of
     the unbudgeted enumeration. *)
  let stats = match stats with Some s -> s | None -> Counters.create () in
  let acc = ref [] in
  let count = ref 0 in
  try
    let seed = Vfix.lfp ~budget g in
    let branch = Array.of_list (order_branch g (branch_space g seed)) in
    let s =
      { g;
        branch;
        budget;
        stats;
        dec = Gop.Values.copy seed;
        frozen = Array.make (Gop.n_atoms g) false;
        decided = [];
        full =
          (fun () ->
            match limit with
            | Some l -> !count >= l
            | None -> false);
        emit =
          (fun v ->
            if Model.is_assumption_free_v g v then begin
              incr count;
              stats.models <- stats.models + 1;
              acc := Gop.Values.to_interp g v :: !acc
            end)
      }
    in
    node s 0;
    Budget.Complete (List.rev !acc)
  with Budget.Exhausted r -> Budget.Partial (List.rev !acc, r)

let maximal models =
  List.filter
    (fun m ->
      not
        (List.exists
           (fun m' -> (not (Interp.equal m m')) && Interp.subset m m')
           models))
    models

let stable_models ?limit ?budget ?stats g =
  Budget.map maximal (assumption_free_models ?limit ?budget ?stats g)

(* Boolean queries over the stable models are not anytime: an answer
   computed from a truncated enumeration would be unsound, so budget
   exhaustion propagates as [Budget.Exhausted]. *)
let all_stable ?budget g = Budget.complete_exn (stable_models ?budget g)

let cautious ?budget g l =
  List.for_all (fun m -> Interp.holds m l) (all_stable ?budget g)

let brave ?budget g l =
  List.exists (fun m -> Interp.holds m l) (all_stable ?budget g)

let cautious_consequences ?budget g =
  match all_stable ?budget g with
  | [] -> Interp.empty (* unreachable: the least model is assumption-free *)
  | m :: rest ->
    List.fold_left
      (fun acc m' ->
        Interp.fold
          (fun a b acc ->
            match Interp.value m' a with
            | Interp.True when b -> acc
            | Interp.False when not b -> acc
            | _ -> Interp.unset acc a)
          acc acc)
      m rest

let is_stable ?budget g interp =
  Model.is_assumption_free g interp
  &&
  let others = Budget.complete_exn (assumption_free_models ?budget g) in
  not
    (List.exists
       (fun m -> (not (Interp.equal interp m)) && Interp.subset interp m)
       others)
