(** Rules ("negative rules" in the paper):

    {v Q0 <- Q1, ..., Qm v}

    where the [Qi] are literals, [Q0] is the head and [Q1, ..., Qm] the
    body.  A rule is {e seminegative} if its head is positive, {e positive}
    (a Horn clause) if additionally its whole body is positive, and a
    {e fact} if the body is empty (paper, Section 2).

    A rule may optionally carry a {e name} ([name : head :- body.] in
    surface syntax) so that rule-preference declarations can refer to it.
    The name is part of the rule's identity: it participates in
    {!compare}/{!equal} and is printed by {!pp}, so named rules
    round-trip through source text, dumps and the WAL. *)

type t = private {
  name : string option;
  head : Literal.t;
  body : Literal.t list;
}

val make : Literal.t -> Literal.t list -> t
(** Unnamed rule. *)

val fact : Literal.t -> t
(** A rule with empty body. *)

val with_name : string -> t -> t
(** The same rule carrying a name. *)

val name : t -> string option

val head : t -> Literal.t
(** [H(r)] in the paper. *)

val body : t -> Literal.t list
(** [B(r)] in the paper (as a list; order is irrelevant semantically). *)

val is_seminegative : t -> bool
val is_positive : t -> bool
val is_ground : t -> bool

val vars : t -> string list
(** Variables of the rule, head first, in first-occurrence order. *)

val rename : (string -> string) -> t -> t

val apply : Subst.t -> t -> t
(** Apply a substitution to head and body. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val predicates : t -> (string * int) list
(** Predicate symbols (with arity) occurring in the rule, duplicates
    removed. *)

(** One printer, in the parser's concrete syntax
    ([name : head :- b1, ..., bn.], or [head.] for an unnamed fact).
    {!to_string} runs it; {!pp} prints its string as one token, so both
    give the same bytes in every [Format] context. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
