(** The ordered immediate transformation [V_{P,C}] (paper, Definition 4)
    and its least fixpoint.

    [V(I) = { H(r) | r in ground(C-star), B(r) <= I, r neither overruled nor
    defeated w.r.t. I }].  [V] is monotone (Lemma 1): growing [I] can only
    satisfy more bodies and block more contradictors, so its least fixpoint
    from the empty interpretation exists and is reached in at most
    [2 * n_atoms] rounds.  By Theorem 1(b) the least fixpoint is the least
    model of [P] in [C], is assumption-free, and equals the intersection of
    all models.

    {!lfp} computes it by incremental counting: every rule keeps a count
    of unmet body literals and of non-blocked suppressors; deriving a
    literal decrements counts along precomputed adjacency, so the total
    work is linear in program size plus suppression edges.  Kleene
    iteration of [V] one rule at a time, the executable specification,
    is the cross-check and benchmark baseline in [test/oracle]. *)

val lfp : ?budget:Budget.t -> Gop.t -> Gop.Values.t
(** Least fixpoint by the incremental counting engine.  [budget] is
    ticked once per derivation processed; exhaustion raises
    [Budget.Exhausted] (the least model is all-or-nothing — a partial
    fixpoint would be unsound to return).  An inconsistent internal
    derivation raises [Diag.Error (Internal_invariant _)] with the atom id
    and the two polarities. *)

type conflict = {
  atom : int;  (** atom whose derivation clashed with the seed *)
  derived : bool;  (** polarity the engine tried to derive for it *)
}

val propagate :
  ?budget:Budget.t ->
  ?frozen:(int -> bool) ->
  Gop.t ->
  Gop.Values.t ->
  (Gop.Values.t, conflict) result
(** Restartable propagation: the least fixpoint of [V] {e above} a
    non-empty seed.  The counters of the incremental engine are
    initialised by one scan of the program against [seed] (which is not
    modified), and propagation then proceeds exactly as from the empty
    assignment — [budget] is ticked once per derivation processed.

    Because [V] is monotone and every model is closed under [V], the
    result is contained in every model of the program that extends the
    seed; the branch-and-propagate searches ({!Stable}, {!Exhaustive})
    call this after each decision to force implied values.

    [Error conflict] signals that no such model exists: the engine derived
    a literal contradicting the seed, or derived a value for an atom the
    caller declared [frozen] (decided to be {e undefined} — any derivation
    for it is a conflict).  [frozen] is only consulted for undefined
    atoms and defaults to accepting none. *)

val repair :
  ?budget:Budget.t ->
  Gop.t ->
  seed:Gop.Values.t ->
  [ `Repaired of Gop.Values.t | `Recomputed of Gop.Values.t ]
(** Repair a least fixpoint after a program change: propagate above a
    seed carrying the still-valid part of a previous fixpoint (the caller
    unsets every atom in the mutation's affected cone).  If the seed is
    below the new lfp — which the cone construction guarantees for
    monotone damage — the result is exactly the new lfp and is returned
    as [`Repaired].  A propagation conflict means the seed kept a value
    the new program refutes (non-monotone damage); the fixpoint is then
    recomputed from scratch and returned as [`Recomputed] — never a
    silent wrong answer.  [budget] is ticked as in {!lfp}. *)

val least_model : ?budget:Budget.t -> Gop.t -> Logic.Interp.t
(** The least model [V^inf_{P,C}(0)] as a symbolic interpretation,
    computed by {!lfp}. *)
