(** Builtin (evaluable) predicates and arithmetic.

    Comparisons — [<], [>], [<=], [>=], [=], [!=] — are the builtin
    predicates used by the paper's loan program (Figure 3: [X > 11],
    [X > Y + 2]).  Arithmetic function symbols [+], [-], [*], [/], [mod]
    (and unary [-]) are evaluated over integers at grounding time.

    A builtin literal has a fixed interpretation, so a ground instance
    whose builtin evaluates to false is {e blocked} in every interpretation
    and can be discarded; one whose builtin is true can drop the literal.
    Comparisons on non-numeric ground terms other than [=]/[!=] (which use
    structural equality) do not evaluate and make the instance
    unsatisfiable. *)

val is_builtin : string * int -> bool
(** [is_builtin (pred, arity)] — recognise comparison predicates (arity 2). *)

val is_builtin_atom : Logic.Atom.t -> bool
val is_builtin_literal : Logic.Literal.t -> bool

val eval_term : Logic.Term.t -> Logic.Term.t
(** Normalise a ground term by evaluating arithmetic sub-terms; arithmetic
    applied to non-integers is left symbolic.  Raises [Invalid_argument] on
    non-ground input and [Governor.Diag.Error (Eval_error _)] on division
    or modulo by zero. *)

val eval_comparison : string -> Logic.Term.t -> Logic.Term.t -> bool option
(** [eval_comparison pred l r]: the comparison [pred] on two normalised
    ground terms; [None] if it does not evaluate. *)

val eval_literal : Logic.Literal.t -> bool option
(** Evaluate a ground builtin literal; [None] if it cannot be evaluated
    (e.g. [penguin < 3]); a negative literal yields the complement.
    Raises [Invalid_argument] if the atom is not builtin or not
    ground. *)
