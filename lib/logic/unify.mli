(** Unification and one-way matching for terms, atoms and literals. *)

val atom : ?init:Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** Unify two atoms (same predicate symbol and arity, argument-wise). *)

val match_literal : ?init:Subst.t -> Literal.t -> Literal.t -> Subst.t option
(** [match_literal pat l] is one-way matching: a substitution [s] with
    [Subst.apply_literal s pat = l], binding only variables of [pat]; the
    polarities must agree.  The subject [l] is treated as rigid (its
    variables are constants). *)
