open Logic

(* Support pruning: a decided literal needs at least one rule about it
   that could still be applied in some extension of the current partial
   assignment — not blocked, and no body atom frozen to undefined.  Both
   conditions are monotone along a branch (false values and frozen atoms
   persist), so once the last such rule dies the literal can never be
   grounded by the enabled version: the subtree holds no assumption-free
   model.  Seed and propagated literals are exempt — the rule that derived
   them stays applicable and unsuppressed in every extension. *)
let groundable (g : Gop.t) ~frozen v a pol =
  let c = Gop.code a pol in
  Gop.exists_about g a (fun i ->
      g.Gop.head.(i) = c
      && not
           (Gop.exists_body g i (fun b ->
                match Status.lit_value v b with
                | Interp.True -> false
                | Interp.False -> true
                | Interp.Undefined -> frozen.(b lsr 1))))

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
    let branch = Parts.branch g seed in
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

(* The part search {!Parts} runs: the same node search over the part's
   atoms, above the least fixpoint plus the seed literals (decided, so
   support pruning covers them too).  Each call builds its own search
   state, so the certifying search can run inside an enumeration. *)
let part_search ~budget ~stats (g : Gop.t) lfp : Parts.search =
 fun ~branch ~seed ~on_model ->
  let dec = Gop.Values.copy lfp in
  List.iter (fun (a, pol) -> Gop.Values.set dec a pol) seed;
  let stop = ref false in
  node
    { g;
      branch;
      budget;
      stats;
      dec;
      frozen = Array.make (Gop.n_atoms g) false;
      decided = seed;
      full = (fun () -> !stop);
      emit =
        (fun v -> if Model.is_assumption_free_v g v then stop := on_model v)
    }
    0

let stable_models ?limit ?(budget = Budget.unlimited) ?stats g =
  let stats = match stats with Some s -> s | None -> Counters.create () in
  match Vfix.lfp ~budget g with
  | exception Budget.Exhausted r -> Budget.Partial ([], r)
  | lfp ->
    Parts.stable_models ?limit ~budget ~stats
      ~search:(part_search ~budget ~stats g lfp)
      (Parts.split g (Parts.least lfp))
