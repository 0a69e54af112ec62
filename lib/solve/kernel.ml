open Logic
module Gop = Ordered.Gop
module Vfix = Ordered.Vfix
module Model = Ordered.Model
module Budget = Ordered.Budget
module Counters = Ordered.Counters
module Diag = Ordered.Diag

(* The compiled search kernel.  Same tree, same enumeration order, same
   model set as the pruned searches ({!Ordered.Stable} for the
   assumption-free enumeration, {!Ordered.Exhaustive} for total models) —
   but instead of re-running the counting engine from the decisions at
   every node, it keeps one incrementally-maintained propagation state
   and undoes it through a trail.  Soundness of the incremental view rests
   on the same monotonicity as [Vfix] (Lemma 1): the derivation fixpoint
   of a decision set is unique, so propagating each new decision on top of
   the previous fixpoint lands exactly where re-propagating from scratch
   would.

   Per-rule state is the watched-literal adaptation for the ordered
   status lattice.  The classical two-watched scheme does not transfer:
   blocking must be detected {e eagerly} (a rule becomes harmless to the
   rules it suppresses the moment one body literal goes false, and that
   unblocking event is what lets suppressed rules fire), so every rule
   keeps

   - [sat]: how many body literals are currently true — the rule's body
     is satisfied when [sat] reaches the body length ([Vfix]'s [missing]
     counter, counted from the other end);
   - [blocker]: the first atom whose assignment falsified a body literal,
     or -1 — a single witness instead of [Vfix]'s boolean, because the
     conflict analysis needs {e why} a suppressor is blocked;
   - [act_sup]: how many suppressors (overrulers + defeaters) are not yet
     blocked.

   A rule fires — derives its head — when [sat] equals its body length
   and [act_sup] is 0, exactly [Vfix]'s condition.  All three counters
   move in one direction along a branch and are restored by popping the
   trail suffix, so propagation never recounts a body.

   Conflicts are analysed into {e nogoods} over the search's decisions:
   the antecedent cone of the conflicting derivation — body atoms of each
   firing rule plus the blocker witness of each of its suppressors —
   resolved back to decisions.  Monotonicity again makes these sound in
   any context, so the store ({!Nogood}) can skip a sibling subtree
   whose decision would complete a learned nogood: the subtree's root
   node would conflict immediately and contains no models, which keeps
   the enumeration order and model set intact while strictly reducing
   visited nodes on conflict-heavy programs.  Restarts are deterministic
   replays — unwind to the root, evict cold nogoods, replay the decision
   stack (which cannot conflict and rebuilds the identical trail) — so
   they too leave the enumeration order untouched. *)

type mode = Af | Total

type state = {
  f : Flat.t;
  mode : mode;
  budget : Budget.t;
  stats : Counters.t;
  value : int array;  (* 0 undefined, 1 true, 2 false — Values codes *)
  vals : Gop.Values.t;  (* zero-copy view of [value] for the model checks *)
  frozen : bool array;
  reason : int array;  (* deriving rule, or -1 for seed/decision *)
  alevel : int array;  (* decision level of the assignment, -1 unassigned *)
  sat : int array;
  blocker : int array;
  act_sup : int array;
  trail : int array;  (* assign events [atom lsl 1], block [rule lsl 1 + 1] *)
  mutable trail_len : int;
  mutable qhead : int;  (* propagation frontier into the trail *)
  mutable level : int;
  dec_atom : int array;  (* the decision stack *)
  dec_val : int array;  (* 0 frozen-undefined, 1 true, 2 false *)
  dec_mark : int array;  (* trail length at the decision *)
  mutable n_dec : int;
  mutable conflict_rule : int;  (* rule whose firing conflicted, or -1 *)
  mutable conflict_atom : int;
  store : Nogood.t;
  mutable pending : int;  (* conflicts since the last restart *)
  mutable root_mark : int;  (* trail length after the level-0 fixpoint *)
  branch : (int * bool * bool) array;
  full : unit -> bool;
  emit : unit -> unit;
  seen : bool array;  (* scratch for the conflict analysis *)
}

let nogood_cap = 512
let restart_interval = 128

let trail_push s ev =
  s.trail.(s.trail_len) <- ev;
  s.trail_len <- s.trail_len + 1

let assign s a pol r =
  s.value.(a) <- (if pol then 1 else 2);
  s.reason.(a) <- r;
  s.alevel.(a) <- s.level;
  trail_push s (a lsl 1)

(* Rule [r] fires.  Deriving an already-equal value is a no-op (a rule
   can re-fire when a later event drops its last suppressor); deriving
   onto the opposite value or a frozen atom is the conflict that prunes
   the subtree.  At level 0 the assignment is seeded from [Vfix.lfp], so
   any disagreement there is an engine bug, not a search conflict. *)
let derive s r =
  let a = s.f.Flat.head.(r) in
  let pol = s.f.Flat.head_pol.(r) in
  match s.value.(a) with
  | 0 ->
    if s.frozen.(a) then begin
      s.conflict_rule <- r;
      s.conflict_atom <- a
    end
    else if s.level = 0 then
      Diag.fail
        (Diag.Internal_invariant
           { where = "Solve.Kernel: level-0 derivation beyond Vfix.lfp";
             atom = a;
             existing = false;
             derived = pol
           })
    else assign s a pol r
  | v ->
    if v <> (if pol then 1 else 2) then begin
      s.conflict_rule <- r;
      s.conflict_atom <- a
    end

let try_fire s r =
  if
    s.conflict_rule < 0
    && s.sat.(r) = s.f.Flat.body_len.(r)
    && s.act_sup.(r) = 0
  then derive s r

(* Drain the trail from [qhead].  An assign event bumps [sat] of the
   rules whose body contains the now-true literal (firing any completed
   ones) and records itself as blocker of the rules containing the
   now-false literal — each such first block is itself a trail event,
   whose processing decrements [act_sup] of the rules the blocked rule
   suppresses.  On conflict the current event's counter loops still
   complete (only derivations stop), so an event is either fully
   processed or not at all — which is what lets [undo_to] decide, from
   [qhead] alone, whether to reverse an event's counter effects. *)
let propagate s =
  Budget.check s.budget;
  let f = s.f in
  while s.qhead < s.trail_len && s.conflict_rule < 0 do
    let ev = s.trail.(s.qhead) in
    if ev land 1 = 0 then begin
      Budget.tick s.budget;
      s.stats.Counters.propagations <- s.stats.Counters.propagations + 1;
      let a = ev lsr 1 in
      let pol = s.value.(a) = 1 in
      let ct = Flat.code a pol in
      for k = f.Flat.occ_off.(ct) to f.Flat.occ_off.(ct + 1) - 1 do
        let r = f.Flat.occ_rule.(k) in
        s.sat.(r) <- s.sat.(r) + 1;
        try_fire s r
      done;
      let cf = Flat.code a (not pol) in
      for k = f.Flat.occ_off.(cf) to f.Flat.occ_off.(cf + 1) - 1 do
        let r = f.Flat.occ_rule.(k) in
        if s.blocker.(r) < 0 then begin
          s.blocker.(r) <- a;
          trail_push s ((r lsl 1) lor 1)
        end
      done
    end
    else begin
      let r = ev lsr 1 in
      for k = f.Flat.suppresses_off.(r) to f.Flat.suppresses_off.(r + 1) - 1
      do
        let i = f.Flat.suppresses_rule.(k) in
        s.act_sup.(i) <- s.act_sup.(i) - 1;
        try_fire s i
      done
    end;
    s.qhead <- s.qhead + 1
  done

(* Pop the trail suffix down to [mark].  Events past [qhead] were created
   but never processed (propagation stopped at a conflict), so only their
   direct effect — the assignment or the blocker witness — is reversed. *)
let undo_to s mark =
  let f = s.f in
  for i = s.trail_len - 1 downto mark do
    let ev = s.trail.(i) in
    if ev land 1 = 1 then begin
      let r = ev lsr 1 in
      s.blocker.(r) <- -1;
      if i < s.qhead then
        for k = f.Flat.suppresses_off.(r) to f.Flat.suppresses_off.(r + 1) - 1
        do
          let j = f.Flat.suppresses_rule.(k) in
          s.act_sup.(j) <- s.act_sup.(j) + 1
        done
    end
    else begin
      let a = ev lsr 1 in
      if i < s.qhead then begin
        let ct = Flat.code a (s.value.(a) = 1) in
        for k = f.Flat.occ_off.(ct) to f.Flat.occ_off.(ct + 1) - 1 do
          let r = f.Flat.occ_rule.(k) in
          s.sat.(r) <- s.sat.(r) - 1
        done
      end;
      s.value.(a) <- 0;
      s.reason.(a) <- -1;
      s.alevel.(a) <- -1
    end
  done;
  s.trail_len <- mark;
  s.qhead <- mark;
  s.conflict_rule <- -1;
  s.conflict_atom <- -1

let dcode a dval = (a * 3) + dval

let decide s a dval =
  s.level <- s.level + 1;
  let k = s.n_dec in
  s.dec_atom.(k) <- a;
  s.dec_val.(k) <- dval;
  s.dec_mark.(k) <- s.trail_len;
  s.n_dec <- k + 1;
  if dval = 0 then begin
    s.frozen.(a) <- true;
    s.alevel.(a) <- s.level
  end
  else begin
    assign s a (dval = 1) (-1);
    propagate s
  end;
  Nogood.push s.store (dcode a dval)

let backtrack s =
  let k = s.n_dec - 1 in
  let a = s.dec_atom.(k) in
  let dval = s.dec_val.(k) in
  Nogood.pop s.store (dcode a dval);
  if dval = 0 then begin
    s.frozen.(a) <- false;
    s.alevel.(a) <- -1
  end
  else undo_to s s.dec_mark.(k);
  s.conflict_rule <- -1;
  s.conflict_atom <- -1;
  s.n_dec <- k;
  s.level <- s.level - 1

(* Resolve the conflict's antecedent cone back to decisions.  The
   antecedents of a fired rule are its body atoms and, for each of its
   suppressors, the blocker witness that discharged it; level-0 atoms are
   unconditionally true and drop out, decisions enter the nogood, derived
   atoms resolve recursively through their deriving rule. *)
let analyze s =
  let f = s.f in
  let touched = ref [] in
  let acc = ref [] in
  let work = ref [] in
  let add_atom a =
    if not s.seen.(a) then begin
      s.seen.(a) <- true;
      touched := a :: !touched;
      if s.alevel.(a) = 0 then ()
      else if s.reason.(a) < 0 then begin
        let dval = if s.frozen.(a) then 0 else s.value.(a) in
        acc := dcode a dval :: !acc
      end
      else work := a :: !work
    end
  in
  let antecedents r =
    for k = f.Flat.body_off.(r) to f.Flat.body_off.(r + 1) - 1 do
      add_atom f.Flat.body_atom.(k)
    done;
    for k = f.Flat.sup_of_off.(r) to f.Flat.sup_of_off.(r + 1) - 1 do
      add_atom s.blocker.(f.Flat.sup_of_rule.(k))
    done
  in
  antecedents s.conflict_rule;
  add_atom s.conflict_atom;
  let rec drain () =
    match !work with
    | [] -> ()
    | a :: rest ->
      work := rest;
      Budget.tick s.budget;
      antecedents s.reason.(a);
      drain ()
  in
  drain ();
  List.iter (fun a -> s.seen.(a) <- false) !touched;
  Array.of_list (List.sort compare !acc)

(* Deterministic restart: unwind to the root, evict cold nogoods, replay
   the decision stack.  Propagation is deterministic, so the replay
   rebuilds the identical trail (same marks, no conflicts — a learned
   nogood is never a subset of a conflict-free path) — the restart's only
   observable effect is the store maintenance. *)
let restart s =
  s.pending <- 0;
  s.stats.Counters.restarts <- s.stats.Counters.restarts + 1;
  let nd = s.n_dec in
  for k = 0 to nd - 1 do
    if s.dec_val.(k) = 0 then begin
      s.frozen.(s.dec_atom.(k)) <- false;
      s.alevel.(s.dec_atom.(k)) <- -1
    end
  done;
  undo_to s s.root_mark;
  let forced = Hashtbl.create (max 4 nd) in
  for k = 0 to nd - 1 do
    Hashtbl.replace forced (dcode s.dec_atom.(k) s.dec_val.(k)) ()
  done;
  let evicted = Nogood.maintain s.store ~in_force:(Hashtbl.mem forced) in
  s.stats.Counters.evicted <- s.stats.Counters.evicted + evicted;
  for k = 0 to nd - 1 do
    s.level <- k + 1;
    let a = s.dec_atom.(k) in
    let dval = s.dec_val.(k) in
    s.dec_mark.(k) <- s.trail_len;
    if dval = 0 then begin
      s.frozen.(a) <- true;
      s.alevel.(a) <- s.level
    end
    else begin
      assign s a (dval = 1) (-1);
      propagate s;
      if s.conflict_rule >= 0 then
        Diag.fail
          (Diag.Internal_invariant
             { where = "Solve.Kernel.restart: replay conflicted";
               atom = a;
               existing = true;
               derived = dval = 1
             })
    end
  done

(* Support pruning, as in [Stable.groundable]: a decided literal needs a
   rule about it that is not blocked and has no frozen-undefined body
   atom, or the subtree holds no assumption-free model. *)
let rule_groundable s r =
  let f = s.f in
  let rec lits k =
    if k >= f.Flat.body_off.(r + 1) then true
    else
      let b = f.Flat.body_atom.(k) in
      let bp = f.Flat.body_pol.(k) in
      match s.value.(b) with
      | 0 -> (not s.frozen.(b)) && lits (k + 1)
      | v -> (v = 1) = bp && lits (k + 1)
  in
  lits f.Flat.body_off.(r)

let groundable s a pol =
  let f = s.f in
  let rec go k =
    if k >= f.Flat.by_head_off.(a + 1) then false
    else
      let r = f.Flat.by_head_rule.(k) in
      (f.Flat.head_pol.(r) = pol && rule_groundable s r) || go (k + 1)
  in
  go f.Flat.by_head_off.(a)

let all_groundable s =
  let rec go k =
    if k >= s.n_dec then true
    else if s.dec_val.(k) = 0 then go (k + 1)
    else
      groundable s s.dec_atom.(k) (s.dec_val.(k) = 1) && go (k + 1)
  in
  go 0

(* One search node — the same shape as [Stable.node] / the total-model
   search, with the propagation for the node's decision already done by
   [branch] below.  The node and effort counters move identically to the
   pruned engines; only nogood skips differ (a skipped subtree counts one
   pruned subtree and no node — its root would conflict immediately). *)
let rec cnode s i =
  Budget.tick s.budget;
  s.stats.Counters.nodes <- s.stats.Counters.nodes + 1;
  if not (s.full ()) then
    if s.conflict_rule >= 0 then begin
      s.stats.Counters.prunes <- s.stats.Counters.prunes + 1;
      s.stats.Counters.conflicts <- s.stats.Counters.conflicts + 1;
      s.pending <- s.pending + 1;
      let ng = analyze s in
      if Array.length ng > 0 then begin
        Nogood.add s.store ng;
        s.stats.Counters.learned <- s.stats.Counters.learned + 1
      end;
      Nogood.decay s.store
    end
    else if s.mode = Af && not (all_groundable s) then
      s.stats.Counters.prunes <- s.stats.Counters.prunes + 1
    else begin
      let n = Array.length s.branch in
      let rec next j =
        if j >= n then -1
        else
          let a, _, _ = s.branch.(j) in
          if s.value.(a) <> 0 then begin
            if s.reason.(a) >= 0 then
              s.stats.Counters.forced <- s.stats.Counters.forced + 1;
            next (j + 1)
          end
          else if s.frozen.(a) then next (j + 1)
          else j
      in
      let j = next i in
      if j < 0 then begin
        s.stats.Counters.leaves <- s.stats.Counters.leaves + 1;
        s.emit ()
      end
      else begin
        let a, can_pos, can_neg = s.branch.(j) in
        if s.mode = Af then branch s a 0 (j + 1);
        if can_pos then branch s a 1 (j + 1);
        if can_neg then branch s a 2 (j + 1)
      end
    end

and branch s a dval j =
  if Nogood.blocks s.store (dcode a dval) then
    s.stats.Counters.prunes <- s.stats.Counters.prunes + 1
  else begin
    decide s a dval;
    cnode s j;
    backtrack s;
    if s.pending >= restart_interval then restart s
  end

let search mode ?limit ?(budget = Budget.unlimited) ?stats ?flat (g : Gop.t) =
  let stats = match stats with Some s -> s | None -> Counters.create () in
  let acc = ref [] in
  let count = ref 0 in
  try
    let seed = Vfix.lfp ~budget g in
    let f = match flat with Some f -> f | None -> Flat.compile g in
    let na = f.Flat.n_atoms in
    let nr = f.Flat.n_rules in
    let value = Array.make na 0 in
    let vals = Gop.Values.of_codes value in
    let full () =
      match limit with Some l -> !count >= l | None -> false
    in
    let emit =
      match mode with
      | Af ->
        fun () ->
          if Model.is_assumption_free_v g vals then begin
            incr count;
            stats.Counters.models <- stats.Counters.models + 1;
            acc := Gop.Values.to_interp g vals :: !acc
          end
      | Total ->
        fun () ->
          if Model.is_model_v g vals then begin
            incr count;
            stats.Counters.models <- stats.Counters.models + 1;
            acc := Gop.Values.to_interp g vals :: !acc
          end
    in
    let s =
      { f;
        mode;
        budget;
        stats;
        value;
        vals;
        frozen = Array.make (max 1 na) false;
        reason = Array.make (max 1 na) (-1);
        alevel = Array.make (max 1 na) (-1);
        sat = Array.make (max 1 nr) 0;
        blocker = Array.make (max 1 nr) (-1);
        act_sup = Array.copy f.Flat.n_sup;
        trail = Array.make (na + nr + 1) 0;
        trail_len = 0;
        qhead = 0;
        level = 0;
        dec_atom = Array.make (max 1 na) 0;
        dec_val = Array.make (max 1 na) 0;
        dec_mark = Array.make (max 1 na) 0;
        n_dec = 0;
        conflict_rule = -1;
        conflict_atom = -1;
        store = Nogood.create ~cap:nogood_cap;
        pending = 0;
        root_mark = 0;
        branch = [||];
        full;
        emit;
        seen = Array.make (max 1 na) false
      }
    in
    (* Adopt the level-0 fixpoint and run it through the propagator once,
       to charge the counters ([sat]/[blocker]/[act_sup]) with the seed.
       Every derivation this triggers lands on an already-equal seed
       value; anything else is caught in [derive]. *)
    for a = 0 to na - 1 do
      match Gop.Values.value seed a with
      | Interp.True -> assign s a true (-1)
      | Interp.False -> assign s a false (-1)
      | Interp.Undefined -> ()
    done;
    for r = 0 to nr - 1 do
      try_fire s r
    done;
    propagate s;
    if s.conflict_rule >= 0 then
      Diag.fail
        (Diag.Internal_invariant
           { where = "Solve.Kernel: level-0 conflict after Vfix.lfp";
             atom = s.conflict_atom;
             existing = true;
             derived = f.Flat.head_pol.(s.conflict_rule)
           });
    s.root_mark <- s.trail_len;
    let branch =
      List.filter_map
        (fun a ->
          if s.value.(a) <> 0 then None
          else
            match mode with
            | Af -> (
              match (f.Flat.head_pos.(a), f.Flat.head_neg.(a)) with
              | false, false -> None
              | p, n -> Some (a, p, n))
            | Total -> Some (a, true, true))
        (List.init na Fun.id)
    in
    let branch =
      List.sort
        (fun (a, _, _) (b, _, _) ->
          compare (-f.Flat.occ_score.(a), a) (-f.Flat.occ_score.(b), b))
        branch
    in
    let s = { s with branch = Array.of_list branch } in
    cnode s 0;
    Budget.Complete (List.rev !acc)
  with Budget.Exhausted r -> Budget.Partial (List.rev !acc, r)

let assumption_free_models ?limit ?budget ?stats ?flat g =
  search Af ?limit ?budget ?stats ?flat g

let maximal models =
  List.filter
    (fun m ->
      not
        (List.exists
           (fun m' -> (not (Interp.equal m m')) && Interp.subset m m')
           models))
    models

let stable_models ?limit ?budget ?stats ?flat g =
  Budget.map maximal (assumption_free_models ?limit ?budget ?stats ?flat g)

let total_models ?limit ?budget ?stats ?flat g =
  search Total ?limit ?budget ?stats ?flat g
