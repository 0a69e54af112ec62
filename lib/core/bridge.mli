(** The classical bridges of Section 3: the {e ordered version} [OV(C)]
    and the {e extended version} [EV(C)] of a (semi)negative program [C].

    [OV(C) = <{-B_C, C}, {C < -B_C}>]: a top component asserting the
    closed-world assumption ["every element of the Herbrand base is false
    unless its truth is proved"] as non-ground negative facts
    [-p(X1, ..., Xn)] (one per predicate, so the size stays polynomial),
    with the program component below it.

    [EV(C)] additionally gives the program component a {e reflexive rule}
    [p(X1, ..., Xn) :- p(X1, ..., Xn)] per predicate.

    Results bridged (and property-tested against the [Datalog] test oracle):
    - Proposition 3: every model of [OV(C)] in [C] is a 3-valued model of
      [C] (converse false — Example 7);
    - Proposition 4: assumption-free models of [OV(C)] in [C] = 3-valued
      founded models of [C];
    - Corollary 1: stable models coincide;
    - Proposition 5: models of [EV(C)] in [C] = 3-valued models of [C];
      stable models of [OV] and [EV] versions coincide. *)

val cwa_component : string
(** Name of the closed-world component: ["cwa"]. *)

val cwa_rules : Logic.Rule.t list -> Logic.Rule.t list
(** The closed-world component's rules for a program: one non-ground
    negative fact per (non-builtin) predicate. *)

val reflexive_rules : Logic.Rule.t list -> Logic.Rule.t list
(** One reflexive rule [p(X...) :- p(X...)] per (non-builtin) predicate. *)

val ov : Logic.Rule.t list -> Program.t
(** The ordered version.  Accepts any negative program (Section 4 reuses
    the construction); builtin comparison predicates get no CWA rule. *)

val ev : Logic.Rule.t list -> Program.t
(** The extended version ([ov] plus reflexive rules). *)

val ground_ov : ?depth:int -> Logic.Rule.t list -> Gop.t
(** [OV(C)] grounded at the program component. *)

val ground_ev : ?depth:int -> Logic.Rule.t list -> Gop.t

val interp_of_atom_set :
  base:Logic.Atom.t list -> Logic.Atom.Set.t -> Logic.Interp.t
(** Total interpretation: atoms of the set true, the rest of the base
    false (how a classical stable model reads as a literal set). *)
