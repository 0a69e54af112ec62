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
  for i = 0 to nr - 1 do
    for k = g.body_off.(i) to g.body_off.(i + 1) - 1 do
      match Status.lit_value v g.body.(k) with
      | Logic.Interp.True -> ()
      | Logic.Interp.Undefined -> missing.(i) <- missing.(i) + 1
      | Logic.Interp.False ->
        blocked.(i) <- true;
        missing.(i) <- missing.(i) + 1
    done
  done;
  let active_sup =
    Array.init nr (fun i ->
        let n = ref 0 in
        for k = g.sup_off.(i) to g.sup_off.(i + 1) - 1 do
          if not blocked.(g.sup.(k)) then incr n
        done;
        !n)
  in
  let fired = Array.make nr false in
  let queue = Queue.create () in
  let derive c =
    let a = c lsr 1 and pol = c land 1 = 1 in
    match Gop.Values.value v a with
    | Logic.Interp.Undefined ->
      if frozen a then on_conflict { atom = a; derived = pol }
      else begin
        Gop.Values.set v a pol;
        Queue.add c queue
      end
    | Logic.Interp.True -> if not pol then on_conflict { atom = a; derived = pol }
    | Logic.Interp.False -> if pol then on_conflict { atom = a; derived = pol }
  in
  let try_fire i =
    if (not fired.(i)) && missing.(i) = 0 && active_sup.(i) = 0 then begin
      fired.(i) <- true;
      derive g.head.(i)
    end
  in
  let block j =
    if not blocked.(j) then begin
      blocked.(j) <- true;
      for k = g.suppresses_off.(j) to g.suppresses_off.(j + 1) - 1 do
        let i = g.suppresses.(k) in
        active_sup.(i) <- active_sup.(i) - 1;
        try_fire i
      done
    end
  in
  for i = 0 to nr - 1 do
    try_fire i
  done;
  (* a derived literal satisfies the rules whose body holds it and
     blocks those whose body holds its complement.  The fixpoint does not
     depend on the order; walking each row from its last rule fixes
     which conflict a search meets first, and the budget ticks before
     it. *)
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let c = Queue.pop queue in
    for k = g.occ_off.(c + 1) - 1 downto g.occ_off.(c) do
      let i = g.occ.(k) in
      missing.(i) <- missing.(i) - 1;
      try_fire i
    done;
    let c' = c lxor 1 in
    for k = g.occ_off.(c' + 1) - 1 downto g.occ_off.(c') do
      block g.occ.(k)
    done
  done;
  v

let no_frozen _ = false

let lfp ?budget (g : Gop.t) =
  run ?budget ~frozen:no_frozen
    ~on_conflict:(fun { atom; derived } ->
      Diag.fail
        (Diag.Internal_invariant
           { where = "Vfix.lfp"; atom; existing = not derived;
             derived }))
    g (Gop.Values.create g)

exception Conflicted of conflict

let propagate ?budget ?(frozen = no_frozen) (g : Gop.t) seed =
  match
    run ?budget ~frozen ~on_conflict:(fun c -> raise (Conflicted c)) g seed
  with
  | v -> Ok v
  | exception Conflicted c -> Error c

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

let least_model ?budget g = Gop.Values.to_interp g (lfp ?budget g)
