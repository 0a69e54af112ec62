(** Rule safety (range restriction).

    A rule is {e safe} when every variable occurring in its head or in a
    builtin body literal also occurs in an ordinary (non-builtin) body
    literal.  Safe rules have finitely many relevant ground instances over a
    finite Herbrand universe and can be grounded by joins.

    Unsafe rules are still meaningful — the paper's [OV(C)] construction
    writes the closed-world component as non-ground facts
    [-p(X1, ..., Xn)], whose instances range over the whole Herbrand base —
    but they force universe-wide enumeration of their free variables. *)

type report = {
  rule : Logic.Rule.t;
  unbound : string list;  (** head/builtin variables bound by no ordinary body literal *)
}

val check : Logic.Rule.t list -> report list
(** Reports for every unsafe rule of the program (empty iff all safe). *)

val pp_report : Format.formatter -> report -> unit
