(** Ordered programs (paper, Definition 1): a finite partially-ordered set
    of components, each a negative program (rules whose heads may be
    negative literals).

    Given a component [C] of [P], [C*] is the negative program
    [{ r | r in C_j and C <= C_j }] — the component's own ({e local}) rules
    together with the rules it inherits ({e global}) from the components
    above it. *)

type component_id = int

type t

val make :
  (string * Logic.Rule.t list) list ->
  (string * string) list ->
  (t, string) result
(** [make components order] builds an ordered program from named components
    and [(lower, higher)] order pairs.  Errors on duplicate component
    names, unknown names in order pairs, or a cyclic order. *)

val extend :
  t -> string -> parents:string list -> Logic.Rule.t list -> (t, string) result
(** [extend t name ~parents rules] is [t] with one more component [name],
    placed below [parents], holding [rules] — equal to {!make} over [t]'s
    components followed by the new one, with the same ids for the old
    ones.  Errors on a duplicate name or an unknown parent.  The old
    components' rows are shared; O(components) array copying plus the
    new component's cone (see {!Poset.extend}). *)

val make_exn :
  (string * Logic.Rule.t list) list -> (string * string) list -> t
(** Like {!make}; raises [Invalid_argument] on error. *)

val singleton : Logic.Rule.t list -> t
(** A one-component ordered program (component name ["main"]) — a plain
    negative program, as in the paper's Examples 3–4. *)

val of_ast : Lang.Ast.t -> (t, string) result
val parse : string -> (t, string) result
(** Parse surface syntax (see {!Lang.Parser}); parse/lex errors are
    reported as [Error _] with position information in the message. *)

val parse_exn : string -> t

val n_components : t -> int
val component_names : t -> string array
val component_id : t -> string -> component_id option
(** A map lookup: O(log components). *)

val component_id_exn : t -> string -> component_id
val component_name : t -> component_id -> string
val rules_of : t -> component_id -> Logic.Rule.t list
(** The component's local rules. *)

val poset : t -> Poset.t

val view : t -> component_id -> (component_id * Logic.Rule.t) list
(** [C*]: the rules visible from the component, each tagged with the
    component it comes from ([C(r)] in the paper). *)

val all_rules : t -> Logic.Rule.t list
(** Every rule of every component (untagged). *)

val with_rules : t -> component_id -> Logic.Rule.t list -> t
(** A copy of the program with one component's local rules replaced;
    the components and the order are shared. *)

val add_rules : t -> component_id -> Logic.Rule.t list -> t
(** A copy of the program with extra rules appended to one component
    (used to inject bulk EDB facts at a viewpoint). *)

val pp : Format.formatter -> t -> unit
(** Surface-syntax rendering (round-trips through {!parse}). *)
