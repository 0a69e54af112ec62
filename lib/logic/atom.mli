(** Atoms (the paper's "predicates"): a predicate symbol applied to a
    sequence of terms, e.g. [bird(penguin)] or [anc(X, Y)].

    Comparison builtins ([<], [>], [<=], [>=], [=], [!=]) are represented as
    ordinary atoms with the operator as predicate symbol; the [Ground]
    library recognises and evaluates them. *)

type t = { pred : string; args : Term.t list }

val make : string -> Term.t list -> t

val prop : string -> t
(** [prop p] is the 0-ary atom [p]. *)

val arity : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val is_ground : t -> bool
val vars : t -> string list
val add_vars : t -> string list -> string list

val rename : (string -> string) -> t -> t
(** Apply a renaming to every variable of the atom. *)

(** One printer, in the parser's concrete syntax ([p], [p(t1, ..., tn)],
    comparisons infix: [X > 11]).  {!to_string} runs it; {!pp} prints its
    string as one token, so both give the same bytes in every [Format]
    context. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_buffer : Buffer.t -> t -> unit
(** Append the printed atom to the buffer. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
