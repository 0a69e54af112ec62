(** Stable models (paper, Definition 9) one independent part at a time.

    The one stable-model algorithm: {!Stable.stable_models} (the pruned
    search) and [Solve.Kernel.stable_models] (the compiled kernel) both
    run it, each passing in its own {!search} over a part.

    {b Split.}  Every assumption-free model contains the least fixpoint
    of [V] (Theorem 1(b)), so only the {e residual} — the atoms it
    leaves undefined — is open.  {!split} cuts the residual into parts
    by union-find: a rule the least fixpoint neither decides nor blocks
    joins its head atom with its undefined body atoms.  By the split
    lemma (docs/SEMANTICS.md) an interpretation above the least
    fixpoint is assumption-free iff each part's share of it is, so the
    stable models are exactly the products of the parts' maximal
    assumption-free models.

    {b Certify.}  A part's candidates are the assumption-free models its
    search enumerates branching on the part's atoms alone.  A candidate
    is kept only after a second search, seeded with it, finds no
    assumption-free model of the part that decides one more atom.

    {b Order contract.}  Parts are ordered by their first atom in the
    branch order (fail-first: most-mentioned atoms first, ties on the
    atom id).  The stable models come in the lexicographic order of the
    product of the parts' certified lists, the first part the most
    significant, each list in its part search's order.  With one part
    this is the assumption-free search order filtered to the maximal
    models.  [?limit:k] returns exactly the first [k] models of the
    unlimited list, and a [Partial] result is a prefix of it: every
    model it holds is stable. *)

type search =
  branch:(int * bool * bool) array ->
  seed:(int * bool) list ->
  on_model:(Gop.Values.t -> bool) ->
  unit
(** An engine's part search.  It enumerates, in the engine's search
    order, the assumption-free models that extend the least fixpoint
    plus the [seed] literals [(atom, polarity)] and define nothing
    outside the least fixpoint but atoms of [branch] — branching on the
    [branch] atoms [(atom, can be true, can be false)] in array order,
    each undefined first, then true, then false.  [on_model] receives
    each model as an assignment that is only valid during the call, and
    returns [true] to stop the search.  [on_model] may itself run the
    search again (the certifying search runs inside the enumeration).
    [branch] is always one whole part of a {!split}.
    Budget exhaustion raises {!Budget.Exhausted}. *)

val fail_first : Gop.t -> (int -> bool) -> int array
(** [fail_first g keep]: the atoms of [g] that [keep] accepts, in the
    fail-first order — the atoms the most rule heads and bodies mention
    first, ties on the atom id.  The order of {!branch}, and of the
    kernel's total-model search. *)

val branch : Gop.t -> Gop.Values.t -> (int * bool * bool) array
(** The branch atoms above a seed assignment, in the fail-first order:
    the atoms it leaves undefined, each with the polarities an
    assumption-free model above the seed could give it (a literal
    derivable from the seed by rules the seed does not block); atoms
    with neither polarity are left out. *)

type t
(** The parts of one program's residual, each its branch atoms in branch
    order, the parts in order of their first atom. *)

type least
(** A least model as codes, with its [Interp] map built on first use
    and shared after (thread-safe: racing first readers build equal
    maps), so repeated listings over one cached least model do not
    rebuild it. *)

val least : Gop.Values.t -> least
(** [least lfp]: [lfp] must be [Vfix.lfp g] of the gop it is used with. *)

val least_codes : least -> Gop.Values.t

val least_interp : Gop.t -> least -> Logic.Interp.t
(** The least model as an interpretation over [g]'s atoms. *)

val split : Gop.t -> least -> t
(** [split g least]: the parts of the residual above the least model. *)

val n_parts : t -> int

(** {1 Carried part lists}

    A part's certified list is a function of its {e key}
    (docs/SEMANTICS.md §5.1, "Part keys"): the part's branch atoms as
    positions with their possible polarities, its live rules with the
    body literals the least fixpoint makes true dropped (atoms by
    position, an undefined atom off the branch by one shared code), and
    the overrule/defeat edges among those rules.  Equal keys give
    positionally equal certified lists, whatever the atom ids, so a
    list can be carried from one listing to the next — across program
    edits that leave the part unchanged — and isomorphic parts of one
    program share one list. *)

type table
(** Part lists by key: immutable, safe to share between threads. *)

val empty : table
val size : table -> int

type carry = {
  mutable table : table;
  mutable hits : int;  (** parts a listing read without searching them *)
  mutable searches : int;  (** part enumerations run *)
}
(** A listing's table, in and out, and what it cost. *)

val carry : table -> carry
(** [carry t]: [t] going in, both counts at zero. *)

val stable_models :
  ?limit:int ->
  ?budget:Budget.t ->
  ?stats:Counters.t ->
  ?carry:carry ->
  search:search ->
  t ->
  Logic.Interp.t list Budget.anytime
(** The stable models in the order contract above, listed lazily: a
    part's models are searched for only as far as the listing up to
    [limit] needs them.  Anytime: a spent budget returns the models
    listed so far as [Partial].  [stats.models] counts the models
    listed.

    With [carry], each part is listed from the carried table as far as
    its entry reaches, and searched only past it; parts with equal keys
    share one list.  Afterwards [carry.table] holds one entry per key
    of this split that has one (the lists as far as this listing got
    them, a [Partial] listing included), and the counts have grown by
    this listing's hits and searches.  [search] is called only for a
    part whose list the table does not cover. *)

(** {1 Boolean queries}

    Part-wise: a literal over a part is decided by that part's certified
    models alone.  Not anytime — exhaustion raises
    {!Budget.Exhausted}. *)

val is_stable : search:search -> t -> Logic.Interp.t -> bool
(** Assumption-free, and no part's share of it is properly extended by
    an assumption-free model of the part. *)

val cautious : search:search -> t -> Logic.Literal.t -> bool
(** The ground literal holds in every stable model. *)

val brave : search:search -> t -> Logic.Literal.t -> bool
(** The ground literal holds in some stable model. *)

val cautious_consequences : search:search -> t -> Logic.Interp.t
(** The literals common to all stable models: the least fixpoint plus,
    per part, the literals common to its certified models. *)
