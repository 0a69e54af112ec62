open Logic

type stats = {
  closure_literals : int;
  relevant_rules : int;
  total_rules : int;
}

(* Dependency closure from a goal literal code; returns the set of literal
   codes (as a bool array) and the list of relevant rule indices. *)
let closure ~budget (g : Gop.t) goal =
  let n = Gop.n_atoms g in
  let seen = Array.make (2 * n) false in
  let rule_in = Array.make (Gop.n_rules g) false in
  let queue = Queue.create () in
  let visit c =
    if not seen.(c) then begin
      seen.(c) <- true;
      Queue.add c queue
    end
  in
  visit goal;
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let c = Queue.pop queue in
    for x = g.head_off.(c lsr 1) to g.head_off.((c lsr 1) + 1) - 1 do
      let i = g.by_head.(x) in
      if g.head.(i) = c && not rule_in.(i) then begin
        rule_in.(i) <- true;
        (* body literals *)
        for k = g.body_off.(i) to g.body_off.(i + 1) - 1 do
          visit g.body.(k)
        done;
        (* complements of suppressors' bodies *)
        for k = g.sup_off.(i) to g.sup_off.(i + 1) - 1 do
          let j = g.sup.(k) in
          for k = g.body_off.(j) to g.body_off.(j + 1) - 1 do
            visit (g.body.(k) lxor 1)
          done
        done
      end
    done
  done;
  (seen, rule_in)

(* Counting fixpoint over a subset of the rules (mirrors Vfix's
   incremental engine, restricted to [rule_in]). *)
let restricted_lfp ~budget (g : Gop.t) rule_in =
  let nr = Gop.n_rules g in
  let v = Gop.Values.create g in
  let missing = Array.init nr (fun i -> g.body_off.(i + 1) - g.body_off.(i)) in
  let blocked = Array.make nr false in
  let active_sup = Array.init nr (fun i -> g.sup_off.(i + 1) - g.sup_off.(i)) in
  let fired = Array.make nr false in
  let queue = Queue.create () in
  let derive c =
    if not (Gop.Values.defined v (c lsr 1)) then begin
      Gop.Values.set v (c lsr 1) (c land 1 = 1);
      Queue.add c queue
    end
  in
  let try_fire i =
    if
      rule_in.(i)
      && (not fired.(i))
      && missing.(i) = 0
      && active_sup.(i) = 0
    then begin
      fired.(i) <- true;
      derive g.head.(i)
    end
  in
  (* Blocking must track *all* rules (a suppressor need not be relevant
     itself to matter), so the block propagation is unrestricted. *)
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
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let c = Queue.pop queue in
    for k = g.occ_off.(c) to g.occ_off.(c + 1) - 1 do
      let i = g.occ.(k) in
      missing.(i) <- missing.(i) - 1;
      try_fire i
    done;
    for k = g.occ_off.(c lxor 1) to g.occ_off.((c lxor 1) + 1) - 1 do
      block g.occ.(k)
    done
  done;
  v

let holds_code ~budget (g : Gop.t) goal =
  let seen, rule_in = closure ~budget g goal in
  let v = restricted_lfp ~budget g rule_in in
  let a = goal / 2 and pol = goal mod 2 = 1 in
  let holds =
    match Gop.Values.value v a with
    | Interp.True -> pol
    | Interp.False -> not pol
    | Interp.Undefined -> false
  in
  let stats =
    { closure_literals = Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen;
      relevant_rules =
        Array.fold_left (fun n b -> if b then n + 1 else n) 0 rule_in;
      total_rules = Gop.n_rules g
    }
  in
  (holds, stats)

let holds_with_stats ?(budget = Budget.unlimited) (g : Gop.t)
    (l : Literal.t) =
  if not (Literal.is_ground l) then
    invalid_arg "Prove.holds: literal must be ground";
  match Gop.atom_id g l.atom with
  | None ->
    ( false,
      { closure_literals = 0;
        relevant_rules = 0;
        total_rules = Gop.n_rules g
      } )
  | Some a -> holds_code ~budget g (Gop.code a l.pol)

let holds ?budget g l = fst (holds_with_stats ?budget g l)

let value ?budget g (l : Literal.t) =
  if holds ?budget g l then Interp.True
  else if holds ?budget g (Literal.neg l) then Interp.False
  else Interp.Undefined
