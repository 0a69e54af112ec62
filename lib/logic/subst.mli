(** Substitutions: finite maps from variable names to terms.

    Ground instances of rules (paper, Section 2) are obtained by applying a
    substitution that maps every variable to an element of the Herbrand
    universe. *)

type t

val empty : t

val singleton : string -> Term.t -> t

val bind : string -> Term.t -> t -> t
(** [bind x t s] adds the binding [x -> t].  Raises [Invalid_argument] if
    [x] is already bound to a different term. *)

val find : string -> t -> Term.t option

val of_list : (string * Term.t) list -> t

val apply_term : t -> Term.t -> Term.t
(** Apply the substitution to a term.  Bindings are applied repeatedly (so
    triangular substitutions produced by unification resolve fully); a
    variable already under expansion is not expanded again, which keeps
    application terminating even on self-referential bindings such as
    [X -> f(X)] (one-way matching can produce these when pattern and
    subject share variable names). *)

val apply_literal : t -> Literal.t -> Literal.t
