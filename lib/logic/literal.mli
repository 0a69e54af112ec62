(** Literals: an atom or its (classical) negation.

    Following the paper, negation may appear both in rule bodies and in rule
    heads; [neg l] is the complementary literal [-A] of [A] (written [-X]
    for sets, see Section 2). *)

type t = { pol : bool; atom : Atom.t }
(** [pol = true] is a positive literal [A]; [pol = false] is the negative
    literal [-A]. *)

val pos : Atom.t -> t
val neg_atom : Atom.t -> t

val make : bool -> Atom.t -> t

val neg : t -> t
(** Complement: [neg A = -A] and [neg (-A) = A]. *)

val is_positive : t -> bool
val is_negative : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val is_ground : t -> bool
val vars : t -> string list
val add_vars : t -> string list -> string list
val rename : (string -> string) -> t -> t

(** One printer, in the parser's concrete syntax ([A] or [-A]).
    {!to_string} runs it; {!pp} prints its string as one token, so both
    give the same bytes in every [Format] context. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_buffer : Buffer.t -> t -> unit
(** Append the printed literal to the buffer. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
