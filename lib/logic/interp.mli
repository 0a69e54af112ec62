(** Three-valued interpretations.

    An interpretation for a program [P] is a consistent subset of
    [B_P U -B_P] (paper, Section 2).  We represent it as a partial map from
    ground atoms to booleans, so consistency (never both [A] and [-A]) holds
    by construction; an atom absent from the map is {e undefined} (the
    paper's [I-bar]). *)

type value = True | False | Undefined

type t

val empty : t
val cardinal : t -> int
(** Number of defined atoms (= number of literals in the set view). *)

val value : t -> Atom.t -> value
(** Truth value of a ground atom. *)

val value_lit : t -> Literal.t -> value
(** Truth value of a literal: [value_lit i (-A)] is the De Morgan dual of
    [value i A]. *)

val holds : t -> Literal.t -> bool
(** [holds i l] iff [value_lit i l = True] — i.e. the literal is a member of
    the interpretation seen as a set of literals. *)

val set : t -> Atom.t -> bool -> t
(** [set i a b] defines [a] as [b].  Raises [Invalid_argument] if [a] is
    already defined with the opposite value (the result would be
    inconsistent). *)

val unset : t -> Atom.t -> t
(** Make an atom undefined again. *)

val of_literals : Literal.t list -> t
(** Build from a literal list; raises [Invalid_argument] if inconsistent. *)

val to_literals : t -> Literal.t list
(** The literal-set view, sorted. *)

val true_atoms : t -> Atom.t list

val undefined_atoms : t -> base:Atom.t list -> Atom.t list
(** [undefined_atoms i ~base] is the paper's [I-bar]: atoms of [base] that
    are neither true nor false in [i]. *)

val is_total : t -> base:Atom.t list -> bool
(** Total w.r.t. a Herbrand base: no undefined atom. *)

val subset : t -> t -> bool
(** [subset i j] iff every literal of [i] is a literal of [j]. *)

val equal : t -> t -> bool

val union : t -> t -> t option
(** Union of the literal sets; [None] if inconsistent. *)

val fold : (Atom.t -> bool -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Atom.t -> bool -> unit) -> t -> unit
val exists : (Atom.t -> bool -> bool) -> t -> bool

val value_conj : t -> Literal.t list -> value
(** Three-valued value of a conjunction: the minimum of the literal values
    under [False < Undefined < True]; [True] for the empty conjunction
    (paper, Section 3). *)

val compare_value : value -> value -> int
(** Ordering [False < Undefined < True]. *)

(** One printer, in the parser's concrete syntax ([{A, -B, ...}], in
    atom order).  {!to_string} runs it; {!pp} prints its string as one
    token, so both give the same bytes in every [Format] context,
    however long the line. *)

val pp : Format.formatter -> t -> unit
val pp_value : Format.formatter -> value -> unit
val to_string : t -> string
