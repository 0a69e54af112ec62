(** Bulk base-relation (EDB) loading and dumping.

    Knowledge bases in the paper's setting sit on top of database
    relations ("[parent] is defined through a database relation", Example
    6).  This module turns delimited text into fact rules and
    interpretations back into delimited text.

    Format: one tuple per line, fields separated by [sep] (default tab).
    A field parses as an integer when it looks like one, otherwise as a
    symbolic constant; fields are trimmed.  Empty lines and lines starting
    with [#] are skipped. *)

val facts_of_string :
  ?sep:char -> rel:string -> string -> (Logic.Rule.t list, string) result
(** Parse a whole document into facts for relation [rel].  All rows must
    have the same arity; the error message cites the offending line. *)

val facts_of_file :
  ?sep:char -> rel:string -> string -> (Logic.Rule.t list, string) result
(** Like {!facts_of_string}, reading the given path. *)

val dump_relation :
  ?sep:char -> pred:string -> Logic.Interp.t -> string
(** The true atoms of the given predicate, one tuple per line (arguments
    only, not the predicate name), sorted.  Negative and undefined atoms
    are not dumped (closed-world export). *)

val relations : Logic.Interp.t -> (string * int) list
(** Predicate name/arity pairs with at least one true atom. *)
