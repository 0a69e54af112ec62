(** Abstract syntax of an ordered-program source file.

    A file is a sequence of declarations: named components (with optional
    [extends] parents), explicit [order] declarations, and bare rules (which
    are collected into a default component named ["main"]).

    [extends]/[isa] declares the enclosing component {e more specific} than
    each parent: [component c1 extends c2 { ... }] yields [c1 < c2] in the
    paper's order (so [c1] inherits — and may overrule — the rules of
    [c2]). *)

type component = {
  name : string;
  parents : string list;  (** this component [<] each parent *)
  rules : Logic.Rule.t list;
}

type decl =
  | Component of component
  | Order of (string * string) list
      (** [order a < b.] pairs: [(a, b)] meaning [a < b] *)
  | Prefer of (string * string) list
      (** [prefer a > b.] pairs: [(a, b)] meaning rule [a] is preferred
          over rule [b] (names refer to named rules) *)
  | Bare_rule of Logic.Rule.t

type t = decl list

val components : t -> component list
(** All components of the file, with bare rules gathered into the
    component ["main"] (created only if bare rules exist), preserving
    declaration order.  Raises [Invalid_argument] on duplicate component
    names. *)

val order_pairs : t -> (string * string) list
(** All [(lower, higher)] order pairs: [extends] clauses plus [order]
    declarations, deduplicated, in declaration order. *)

val prefer_pairs : t -> (string * string) list
(** All [(preferred, over)] rule-preference pairs from [prefer]
    declarations, deduplicated, in declaration order. *)

val pp : Format.formatter -> t -> unit
(** Print the file back in surface syntax (see {!Pretty}). *)
