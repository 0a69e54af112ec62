(* Pure V(I): the heads of the rules that fire under I.  For a consistent
   I the result is consistent: two complementary-headed rules cannot both
   be unsuppressed unless one is blocked, and a blocked rule's body is
   never satisfied by a consistent interpretation. *)
let step (g : Gop.t) v =
  let next = Gop.Values.create g in
  Array.iteri
    (fun i (r : Gop.grule) ->
      if
        Status.applicable g v i
        && (not (Status.overruled g v i))
        && not (Status.defeated g v i)
      then Gop.Values.set next r.head r.head_pol)
    g.rules;
  next

type conflict = { atom : int; derived : bool }

(* Incremental counting engine, restartable from any consistent partial
   assignment.  Invariants:
   - missing.(i): body literals of rule i not (yet) true under v;
   - blocked.(i): some body literal of rule i is false under v;
   - active_sup.(i): suppressors (overrulers + defeaters) of i not yet
     blocked;
   - a rule fires (derives its head) when missing = 0 and active_sup = 0.
   Monotonicity (Lemma 1) makes all three evolve in one direction only,
   which is also why restarting from a seed is sound: the counters are
   initialised by one scan of the program against the seed, and the queue
   then processes only the newly derived literals.

   A derivation that contradicts the seed (or lands on a [frozen]
   undefined atom) is reported through [on_conflict], which must raise:
   from the empty seed it is an internal invariant violation, from a
   search's partial assignment it is an ordinary conflict that prunes the
   subtree. *)
let run ?(budget = Budget.unlimited) ~frozen ~on_conflict (g : Gop.t) seed =
  Budget.check budget;
  let nr = Gop.n_rules g in
  let v = Gop.Values.copy seed in
  let missing = Array.make nr 0 in
  let blocked = Array.make nr false in
  Array.iteri
    (fun i (r : Gop.grule) ->
      let m = ref 0 in
      Array.iter
        (fun l ->
          match Status.lit_value v l with
          | Logic.Interp.True -> ()
          | Logic.Interp.Undefined -> incr m
          | Logic.Interp.False ->
            blocked.(i) <- true;
            incr m)
        r.body;
      missing.(i) <- !m)
    g.rules;
  let count_active = List.fold_left (fun n j -> if blocked.(j) then n else n + 1) 0 in
  let active_sup =
    Array.init nr (fun i ->
        count_active g.overrulers.(i) + count_active g.defeaters.(i))
  in
  let fired = Array.make nr false in
  let queue = Queue.create () in
  let fires = ref [] in
  let round = ref 0 in
  let derive a pol =
    match Gop.Values.value v a with
    | Logic.Interp.Undefined ->
      if frozen a then on_conflict { atom = a; derived = pol }
      else begin
        Gop.Values.set v a pol;
        Queue.add (a, pol) queue
      end
    | Logic.Interp.True -> if not pol then on_conflict { atom = a; derived = pol }
    | Logic.Interp.False -> if pol then on_conflict { atom = a; derived = pol }
  in
  let try_fire i =
    if (not fired.(i)) && missing.(i) = 0 && active_sup.(i) = 0 then begin
      fired.(i) <- true;
      fires := (i, !round) :: !fires;
      derive g.rules.(i).head g.rules.(i).head_pol
    end
  in
  let block j =
    if not blocked.(j) then begin
      blocked.(j) <- true;
      List.iter
        (fun i ->
          active_sup.(i) <- active_sup.(i) - 1;
          try_fire i)
        g.suppresses.(j)
    end
  in
  for i = 0 to nr - 1 do
    try_fire i
  done;
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    incr round;
    let a, pol = Queue.pop queue in
    let sat_rules = if pol then g.by_body_pos.(a) else g.by_body_neg.(a) in
    let blk_rules = if pol then g.by_body_neg.(a) else g.by_body_pos.(a) in
    List.iter
      (fun i ->
        missing.(i) <- missing.(i) - 1;
        try_fire i)
      sat_rules;
    List.iter block blk_rules
  done;
  (v, List.rev !fires)

let no_frozen _ = false

let run_incremental ?budget (g : Gop.t) =
  run ?budget ~frozen:no_frozen
    ~on_conflict:(fun { atom; derived } ->
      Diag.fail
        (Diag.Internal_invariant
           { where = "Vfix.run_incremental"; atom; existing = not derived;
             derived }))
    g (Gop.Values.create g)

exception Conflicted of conflict

let propagate ?budget ?(frozen = no_frozen) (g : Gop.t) seed =
  match
    run ?budget ~frozen ~on_conflict:(fun c -> raise (Conflicted c)) g seed
  with
  | v, _fires -> Ok v
  | exception Conflicted c -> Error c

let lfp ?budget g = fst (run_incremental ?budget g)

(* Fixpoint repair: the lfp of [I |-> seed ∪ V(I)].  When the seed is
   contained in the true lfp (the caller unset every atom a mutation
   could have touched), monotonicity pins this to the true lfp: the lfp
   L satisfies seed ∪ V(L) = L, so the seeded fixpoint is ≤ L; and it
   is a prefixpoint of V containing ∅, so ≥ L by Knaster–Tarski.  A
   conflict means the seed was {e not} below the lfp — non-monotone
   damage the cone analysis missed — and we recompute from scratch
   rather than return anything partial. *)
let repair ?budget (g : Gop.t) ~seed =
  match propagate ?budget g seed with
  | Ok v -> `Repaired v
  | Error _ -> `Recomputed (lfp ?budget g)
let trace ?budget g = snd (run_incremental ?budget g)

let least_model ?budget g = Gop.Values.to_interp g (lfp ?budget g)
