(** Differential oracles: the pre-propagation leaf-check enumerators.

    Each one visits the full assignment tree and applies the paper's
    definitional test only at complete leaves, so it is slow on purpose
    and shares no search machinery with the production engines
    ({!Ordered.Stable}, {!Ordered.Exhaustive}, {!Solve.Kernel},
    {!Prefer.Compile}).  The differential suites check the engines
    against these (same model sets, same counts under [?limit]), and the
    node-ratio benchmarks use them as the baseline.  Each enumerates in
    its own documented naive order, which differs from the engines'. *)

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
  (** The maximal elements of {!assumption_free_models}, in its order. *)
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
