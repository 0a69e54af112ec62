(** Differential oracles for the production search ({!Solve.Kernel}).

    Two kinds live here.  The {e leaf-check} enumerators ({!Stable},
    {!Exhaustive}, {!Prefer}) visit the full assignment tree and apply the
    paper's definitional test only at complete leaves, so they are slow
    on purpose and share no search machinery with the kernel or with
    {!Ordered.Stable}'s pruned search.  The differential suites check the
    engines against them (same model sets, same counts under [?limit]),
    and the node-ratio benchmarks use them as the baseline.  Each
    enumerates in its own documented naive order, which differs from the
    engines'.

    {!Pruned} is the other kind: the branch-and-propagate total-model
    search.  It enumerates in the kernel's order, so it is the reference
    for that order ([test_diff_stable], [test_golden]) and the pruned
    baseline of the enumeration benchmarks. *)

module Stable : sig
  val assumption_free_models :
    ?limit:int ->
    ?budget:Ordered.Budget.t ->
    ?stats:Ordered.Counters.t ->
    Ordered.Gop.t ->
    Logic.Interp.t list Ordered.Budget.anytime
  (** Same model set as {!Ordered.Stable.assumption_free_models}, in the
      naive search order: undecided head atoms in interning order, each
      undefined, then true, then false — so the least model comes first. *)

  val stable_models :
    ?limit:int ->
    ?budget:Ordered.Budget.t ->
    ?stats:Ordered.Counters.t ->
    Ordered.Gop.t ->
    Logic.Interp.t list Ordered.Budget.anytime
  (** The maximal elements of the complete {!assumption_free_models}
      enumeration, in its order, cut to the first [limit]; a budget that
      truncates the enumeration leaves [Partial ([], reason)], since a
      prefix certifies no model maximal. *)
end

module Exhaustive : sig
  val total_models :
    ?limit:int ->
    ?budget:Ordered.Budget.t ->
    ?stats:Ordered.Counters.t ->
    Ordered.Gop.t ->
    Logic.Interp.t list Ordered.Budget.anytime
  (** Every complete assignment of the active base that is a model, in
      the naive order: atoms in active-base order, true before false. *)
end

module Pruned : sig
  val total_models :
    ?limit:int ->
    ?budget:Ordered.Budget.t ->
    ?stats:Ordered.Counters.t ->
    Ordered.Gop.t ->
    Logic.Interp.t list Ordered.Budget.anytime
  (** All total models over the active base, by branch-and-propagate:
      seeded with the least fixpoint of [V], conflict pruning via
      {!Ordered.Vfix.propagate}, fail-first atom order (most-mentioned
      atoms first, ties on the atom id), true before false.  Models come
      in search order — the order {!Solve.Kernel.total_models} must
      reproduce — so [?limit:k] is the first [k] of the unlimited
      enumeration and a [Partial] result is a prefix of it. *)
end

module Prefer : sig
  val refined_gop : Prefer.Spec.t -> Ordered.Gop.t
  (** The {e original} grounding with overruling/defeating recomputed
      under the preference-refined rule order: ground rules are grouped
      into (component, rule name) classes, the class order is its own
      transitive closure (independent of {!Ordered.Poset}), and the
      Definition 2 adjacency is rebuilt over it.  No compiled program is
      built. *)

  val preferred_models :
    ?limit:int ->
    ?budget:Ordered.Budget.t ->
    ?stats:Ordered.Counters.t ->
    Prefer.Spec.t ->
    Logic.Interp.t list Ordered.Budget.anytime
  (** {!Stable.stable_models} of {!refined_gop}: the same model set as
      the compiled translation, in the naive order. *)
end

val is_maximal : Logic.Interp.t list -> Logic.Interp.t -> bool
(** [is_maximal models m]: no other element of [models] strictly extends
    [m] — the naive subset test. *)

val maximal : Logic.Interp.t list -> Logic.Interp.t list
(** The elements of [models] that {!is_maximal} keeps, in order: the
    quadratic Definition 9 filter, the reference for the part-wise
    certification of {!Ordered.Parts}. *)

(** The dense reference for {!Ordered.Poset}: the Warshall closure over an
    n x n bool matrix. *)
module Poset : sig
  type t

  val make : n:int -> pairs:(int * int) list -> (t, string) result
  val lt : t -> int -> int -> bool
  val leq : t -> int -> int -> bool
  val incomparable : t -> int -> int -> bool
  val above : t -> int -> int list
  val minimal : t -> int list
end

(** The [Format] printers of {!Logic.Term}, {!Logic.Atom},
    {!Logic.Literal}, {!Logic.Rule} and {!Logic.Interp} as they were
    before the library printed into a [Buffer], kept verbatim: the
    reference the diff-print suite checks the production printers
    against, byte for byte. *)
module Print : sig
  module Term : sig
    val pp : Format.formatter -> Logic.Term.t -> unit
    val to_string : Logic.Term.t -> string
  end

  module Atom : sig
    val pp : Format.formatter -> Logic.Atom.t -> unit
    val to_string : Logic.Atom.t -> string
  end

  module Literal : sig
    val pp : Format.formatter -> Logic.Literal.t -> unit
    val to_string : Logic.Literal.t -> string
  end

  module Rule : sig
    val pp : Format.formatter -> Logic.Rule.t -> unit
    val to_string : Logic.Rule.t -> string
  end

  module Interp : sig
    val pp : Format.formatter -> Logic.Interp.t -> unit
    val to_string : Logic.Interp.t -> string
  end
end

(** The substitution grounder behind the ordered groundings, as it was
    before grounding by plans: every candidate substitution applied to
    the rule and finalised ([Datalog.Grounder.instances]), instances
    deduplicated on structural (component, rule) keys, then interned by
    {!of_view}.  The reference the diff-ground suite checks
    [Ordered.Gop.ground], [Inc.Reground] and [Ground.Grounder.naive]
    against. *)
module Ground : sig
  val groups :
    ?budget:Ordered.Budget.t ->
    ?max_instances:int ->
    ?depth:int ->
    Ordered.Program.t ->
    Ordered.Program.component_id ->
    (Ordered.Program.component_id * Logic.Rule.t * Logic.Rule.t list) list
  (** One group [(component, source rule, surviving instances)] per view
      rule, in view order, deduplicated through one table shared across
      the view; the instance cap counted per source rule before dedup.
      The universe is the schema rules' signature's, computed here. *)

  val flatten :
    (Ordered.Program.component_id * Logic.Rule.t * Logic.Rule.t list) list ->
    (Ordered.Program.component_id * Logic.Rule.t) list

  val of_view :
    Ordered.Program.t ->
    Ordered.Program.component_id ->
    (Ordered.Program.component_id * Logic.Rule.t) list ->
    Ordered.Gop.t
  (** Intern an explicitly given tagged view of ground rules, with no
      [Ordered.Gop] code: atoms numbered by first occurrence (per rule
      the head, then the body deduplicated in {!Logic.Literal.compare}
      order), every row built as a list and packed, and the overruling,
      defeating and suppression rows recomputed over every pair of rules
      with one head atom.  The grounding [Ordered.Gop.ground] and
      [Ordered.Gop.splice] must reproduce array for array.  Raises
      [Invalid_argument] on a non-ground rule. *)

  val gop :
    ?budget:Ordered.Budget.t ->
    ?max_instances:int ->
    ?depth:int ->
    Ordered.Program.t ->
    Ordered.Program.component_id ->
    Ordered.Gop.t
  (** {!of_view} over the flattened {!groups}. *)

  val naive :
    ?budget:Ordered.Budget.t ->
    ?depth:int ->
    Logic.Rule.t list ->
    Logic.Rule.t list
  (** The rules of [Ground.Grounder.naive], by substitution. *)
end

(** The least fixpoint of [V] as the paper defines it. *)
module Vfix : sig
  val step : Ordered.Gop.t -> Ordered.Gop.Values.t -> Ordered.Gop.Values.t
  (** One application of [V] (paper, Definition 4), every rule's status
      read off {!Ordered.Status}; returns a fresh assignment. *)

  val lfp_naive :
    ?budget:Ordered.Budget.t -> Ordered.Gop.t -> Ordered.Gop.Values.t
  (** Kleene iteration of {!step} from the empty assignment:
      every rule re-evaluated each round (quadratic), the executable
      specification {!Ordered.Vfix.lfp} is checked and benchmarked
      against; [budget] is polled once per round. *)
end
