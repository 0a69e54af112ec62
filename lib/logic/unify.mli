(** Unification and one-way matching for terms, atoms and literals. *)

val term : ?init:Subst.t -> Term.t -> Term.t -> Subst.t option
(** [term t1 t2] is a most general unifier of [t1] and [t2] (with occurs
    check), extending [init] if given; [None] if the terms do not unify. *)

val atom : ?init:Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** Unify two atoms (same predicate symbol and arity, argument-wise). *)

val literal : ?init:Subst.t -> Literal.t -> Literal.t -> Subst.t option
(** Unify two literals of the same polarity. *)

val match_term : ?init:Subst.t -> Term.t -> Term.t -> Subst.t option
(** [match_term pat t] is one-way matching: a substitution [s] with
    [Subst.apply_term s pat = t], binding only variables of [pat].  The
    subject [t] is treated as rigid (its variables are constants). *)

val match_literal : ?init:Subst.t -> Literal.t -> Literal.t -> Subst.t option
