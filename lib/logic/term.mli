(** First-order terms.

    A term is a variable, an integer constant, a symbolic constant, or a
    function application [f(t1, ..., tn)] with [n >= 1] (paper, Section 2:
    "a term is recursively defined as a variable, a constant or
    [f(t1, ..., tn)]").  Integers are a distinguished constant sort so that
    the arithmetic builtins of the loan program (Figure 3) can be
    evaluated. *)

type t =
  | Var of string  (** logical variable, e.g. [X] *)
  | Int of int  (** integer constant, e.g. [12] *)
  | Sym of string  (** symbolic constant, e.g. [penguin] *)
  | App of string * t list
      (** function application [f(t1, ..., tn)], [n >= 1] *)

val compare : t -> t -> int
(** Total structural order, suitable for [Map]/[Set]. *)

val compare_lists : t list -> t list -> int
(** Lexicographic extension of {!compare} to argument lists. *)

val equal : t -> t -> bool

val hash : t -> int

val is_ground : t -> bool
(** [is_ground t] is [true] iff [t] contains no variable. *)

val vars : t -> string list
(** Variables occurring in [t], each listed once, in first-occurrence
    order. *)

val add_vars : t -> string list -> string list
(** [add_vars t acc] prepends to [acc] the variables of [t] not already in
    [acc] (first-occurrence order overall when folded left-to-right). *)

val size : t -> int
(** Number of constructors in the term (a variable or constant has size
    1). *)

val depth : t -> int
(** Nesting depth: constants and variables have depth 0, [f(t, ...)] has
    depth [1 + max (depth ti)]. *)

val rename : (string -> string) -> t -> t
(** [rename f t] applies [f] to every variable name in [t]. *)

(** One printer, in the parser's concrete syntax ([f(X, 3, a)];
    arithmetic infix, parenthesised to re-parse to the same term, so
    [(-1)] under an operator).  {!to_string} runs it; {!pp} prints its
    string as one token, with no box and no break hint, so both give
    the same bytes in every [Format] context. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_buffer : Buffer.t -> t -> unit
(** Append the printed term to the buffer. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** [add_list buf add xs] appends the elements of [xs] with [add],
    separated by [", "]: the list layout of every printer in this
    library. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
