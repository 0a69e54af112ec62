(** Static analysis of ordered programs (no grounding): which rules can
    conflict, and how the order resolves the conflict.

    Two rules {e potentially conflict} when their heads unify with
    opposite polarities.  Depending on where the rules live, the conflict
    is resolved by {e overruling} (one component strictly below the
    other), by {e defeating} (same or incomparable components), or is
    invisible from a given viewpoint.  The [olp check] command prints this
    report so knowledge-base authors can see the exception structure of
    their program before running it. *)

type resolution =
  | Overruling of { winner : Program.component_id }
      (** the rule in the lower component silences the other *)
  | Defeating
      (** mutual: both instances become undefined where they clash *)

type conflict = {
  rule_a : Logic.Rule.t;
  comp_a : Program.component_id;
  rule_b : Logic.Rule.t;
  comp_b : Program.component_id;
  resolution : resolution;
}

val conflicts : Program.t -> Program.component_id -> conflict list
(** All potential conflicts among the rules visible from a component, in
    a deterministic order.  Each unordered rule pair is reported once. *)

val pp_conflict : Program.t -> Format.formatter -> conflict -> unit
