(** Incremental re-grounding: repair the grounding of one viewpoint after
    a single-rule mutation instead of re-instantiating the whole view.

    A {!state} keeps, next to the interned {!Ordered.Gop.t}, the
    provenance {!Gop.ground_groups} produced it from — one group of
    surviving ground instances per view rule — plus the schema universe
    the instances were enumerated over.  {!reground} aligns the cached
    groups against the mutated program's view, instantiates only the
    added rule through a plan (or drops only the removed rule's groups),
    deduplicating on instance keys — integer arrays of atom ids,
    compared per (component, rule name) — and splices the change into
    the interned grounding ({!Ordered.Gop.splice}: integer work on atom
    and rule ids, from the keys; no [Rule.t] is built).
    When scratch numbering moves existing atoms, the splice renumbers
    and the cached keys are rewritten to the new ids.  By the
    shared-dedup discipline the result is {e bit-identical} to grounding
    the new view from scratch, which preserves every enumeration-order
    contract downstream.

    Repair refuses — [Error], the caller recomputes — whenever identity
    with scratch grounding cannot be guaranteed cheaply:

    - [`Universe_changed]: the mutation changed the view's Herbrand
      universe (a new or vanished constant), so {e other} rules'
      instances change too.  This is why adding a fact about a fresh
      constant never repairs.  The edit decides it where that is exact —
      an insertion whose constants the universe already has, or a
      deletion of constant-free rules, keeps it — so the usual write
      does not recompute the universe over the whole view.
    - [`Shared_instance]: a dropped ground instance is also producible
      by a surviving same-component rule of the same name (or an added
      instance collides with a later group) — scratch grounding would
      attribute it differently.
    - [`View_mismatch]: the new view is not the old view with pure
      insertions or pure deletions (e.g. the component set changed). *)

type group = Ordered.Gop.group = {
  comp : Ordered.Program.component_id;
  src : Logic.Rule.t;  (** the schema (view) rule *)
  keys : int array array;
      (** its surviving deduplicated instances as keys over [gop]'s atom
          ids ({!Ordered.Gop.group}) *)
}

type state = Ordered.Gop.grounded = {
  gop : Ordered.Gop.t;
  groups : group list;  (** provenance, in view order, one per view rule *)
  universe : Logic.Term.t list;  (** schema universe the instances used *)
}

type fallback = [ `Universe_changed | `Shared_instance | `View_mismatch ]

val ground :
  ?budget:Governor.Budget.t ->
  Ordered.Program.t ->
  Ordered.Program.component_id ->
  state
(** Scratch grounding with provenance ({!Ordered.Gop.ground_groups});
    [state.gop] equals [Ordered.Gop.ground program comp]. *)

val reground :
  ?budget:Governor.Budget.t ->
  state ->
  program:Ordered.Program.t ->
  (state * Delta.t, fallback) result
(** Repair against the mutated [program] (same component numbering —
    single-rule mutations never renumber).  [Ok (state', delta)]: the
    delta names the added rules and the seed atoms by their ids in
    [state'.gop].  An empty delta means the mutation did not change this
    viewpoint's grounding at all (the instances deduplicated away or the
    rule had none); every cached result for the viewpoint is then still
    exact. *)
