(** High-level entry point for the classical substrate: take a (possibly
    non-ground) seminegative program, ground it, and evaluate it under the
    classical semantics the paper compares against.

    Negative body literals are read as negation-as-failure here (the
    closed-world reading); for the classical-negation reading use the
    [Ordered] library (directly, or through its [OV]/[EV] bridges). *)

type t

val load :
  ?budget:Governor.Budget.t ->
  ?depth:int ->
  ?grounder:[ `Naive | `Relevant ] ->
  Logic.Rule.t list ->
  t
(** Ground and intern a seminegative program.  [`Relevant] (default) uses
    NAF-aware relevance grounding, which preserves all the semantics
    below; [`Naive] instantiates over the full universe.  [budget] bounds
    the grounding (semi-naive) loop and the interning of its rules;
    exhaustion raises [Governor.Budget.Exhausted]. *)

val load_src :
  ?budget:Governor.Budget.t ->
  ?depth:int ->
  ?grounder:[ `Naive | `Relevant ] ->
  string ->
  t
(** Parse the rules from surface syntax first. *)

val nprog : t -> Nprog.t
val ground_rules : t -> Logic.Rule.t list

val minimal_model : t -> Logic.Atom.Set.t
(** Least fixpoint of [T_P] (NAF rules never fire); the minimal total
    model for a positive program. *)

val well_founded : ?budget:Governor.Budget.t -> t -> Logic.Interp.t
(** The well-founded (3-valued) model (computed on first call, then
    cached; the budget only governs the computing call). *)

val stable_models :
  ?limit:int -> ?budget:Governor.Budget.t -> t -> Logic.Atom.Set.t list
(** The classical (total, Gelfond–Lifschitz) stable models. *)

val perfect_model : t -> Logic.Atom.Set.t option
(** The perfect model, when the source program is stratified. *)

val is_stratified : t -> bool

val holds : ?budget:Governor.Budget.t -> t -> Logic.Literal.t -> Logic.Interp.value
(** Value of a ground literal in the well-founded model. *)
