(** Herbrand universe and base (paper, Section 2).

    The Herbrand universe [H_P] of a program is the set of ground terms
    built from the constants and function symbols occurring in it; the
    Herbrand base [B_P] is the set of ground atoms over the predicate
    symbols of the program with arguments in [H_P].  With function symbols
    the universe is infinite, so generation takes a [depth] bound. *)

type signature = {
  constants : Term.t list;  (** [Int] and [Sym] constants, deduplicated *)
  functions : (string * int) list;  (** function symbols with arity *)
  predicates : (string * int) list;  (** predicate symbols with arity *)
}

val signature_of_rules : Rule.t list -> signature
(** Collect the signature of a rule list.  If the program has no constant at
    all, a single fresh constant [a0] is supplied so that the universe is
    non-empty (the usual convention). *)

val term_signature : ((Atom.t -> unit) -> unit) -> signature
(** [term_signature iter]: the constants and function symbols of the
    atoms [iter] hands to its callback, with the [a0] convention —
    everything {!universe} needs; [predicates] is empty. *)

val universe : ?depth:int -> signature -> Term.t list
(** Ground terms of nesting depth at most [depth] (default 0, i.e. just the
    constants).  Sorted, deduplicated. *)

val base : ?depth:int -> ?skip:(string * int -> bool) -> signature -> Atom.t list
(** Ground atoms over the signature's predicates with arguments drawn from
    [universe ~depth].  [skip] filters out predicates (used to omit builtin
    comparison predicates).  Sorted, deduplicated. *)

val instantiations : Term.t list -> string list -> Subst.t Seq.t
(** [instantiations universe vars]: all substitutions mapping each variable
    of [vars] to an element of [universe] (the paper's mappings [theta] used
    to form ground instances). *)
