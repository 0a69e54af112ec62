(** Ground ordered programs: the grounding of [C*] for one viewpoint
    component [C], interned for the fixpoint engines.

    Every ground rule carries the component it comes from ([C(r)] in the
    paper).  For Definition 2 we precompute, for each rule [r], its
    {e overrulers} (rules [r'] with [H(r') = -H(r)] and [C(r') < C(r)]) and
    its {e defeaters} ([H(r') = -H(r)] and [C(r') <> C(r)] or
    [C(r') = C(r)]).  A non-blocked overruler makes [r] {e overruled}; a
    non-blocked defeater makes [r] {e defeated}; either way [r] is
    {e suppressed} and cannot fire in the ordered immediate transformation
    [V]. *)

type grule = {
  head : int;  (** head atom id *)
  head_pol : bool;  (** head polarity: [true] for [A], [false] for [-A] *)
  body : (int * bool) array;  (** body literals, deduplicated *)
  comp : Program.component_id;  (** [C(r)] *)
  name : string option;
      (** name of the source rule this instance came from, if named *)
}

type t = {
  program : Program.t;
  comp : Program.component_id;  (** the viewpoint component *)
  atoms : Logic.Atom.t array;  (** atom id -> atom *)
  ids : int Logic.Atom.Tbl.t;
  rules : grule array;
  by_head : int list array;  (** atom id -> rules with that head atom *)
  by_body_pos : int list array;  (** atom id -> rules with [A] in body *)
  by_body_neg : int list array;  (** atom id -> rules with [-A] in body *)
  overrulers : int list array;
  defeaters : int list array;
  suppresses : int list array;
      (** inverse adjacency: rules [r] overrules or defeats *)
}

val ground :
  ?budget:Budget.t ->
  ?max_instances:int ->
  ?depth:int ->
  Program.t ->
  Program.component_id ->
  t
(** Ground the view [C*] of the given component over its full Herbrand
    universe ({!schema_universe}), through instantiation plans
    ({!Ground.Grounder}).  [max_instances] is the one instance cap: it
    raises [Diag.Error (Grounding_overflow _)] — carrying the offending
    rule and the counts — when instantiation exceeds the cap (a guard
    against accidental blow-up on wide universes).  [budget] bounds the
    grounding work itself (deadline / steps, one tick per candidate);
    exhaustion raises [Budget.Exhausted].

    {b Plans.}  Each view rule is compiled once into a plan, and its
    surviving candidates come out as keys of atom ids in one intern
    table ({!Ground.Grounder.iter}).  Instances are deduplicated on those
    keys ({!Instance_keys}), the atoms numbered and the body sorted by
    integer work; an [Atom.t] and an [ids] entry are made once per
    distinct atom.  Every step is linear in the instances, also when
    they share one head (a rule whose variables all sit in its body):
    only rules of opposite head polarity are paired for the suppression
    rows.

    {b Bit identity.}  The result is structurally equal to interning,
    from scratch, the instances the substitution grounder would produce
    (the reference in [test/oracle]; the [diff-ground] suite checks it):
    - rule order: view order, and within a view rule the candidate
      order of {!Logic.Herbrand.instantiations};
    - duplicates: the first occurrence wins per (component, rule name,
      head, body list in source order);
    - atom numbering: per rule the head first, then the
      {!Logic.Literal.compare}-sorted deduplicated body;
    - rule names kept. *)

type group = {
  comp : Program.component_id;
  src : Logic.Rule.t;  (** the schema (view) rule *)
  keys : int array array;
      (** its surviving deduplicated instances, in order, each as its
          literal codes [2 * atom + (1 if positive)] over the gop's atom
          ids: the head, then the ordinary body literals in source order
          (duplicates kept) — the deduplication identity *)
}

(** The deduplication rule, shared by {!ground_groups} and incremental
    re-grounding so that both keep the same instances: instance keys by
    class (component, rule name), the first occurrence of a key in its
    class wins.  One hash table per class; a lookup is a hash of the
    key. *)
module Instance_keys : sig
  type t

  val create : unit -> t

  val fresh : t -> Program.component_id -> Logic.Rule.t -> int array -> bool
  (** [fresh t c r] finds the class of [c] and [r]'s name once; the
      result, applied to a key, adds it and returns [true] if the class
      lacked it, and returns [false] otherwise. *)

  val add : t -> Program.component_id -> Logic.Rule.t -> int array -> unit
  val mem : t -> Program.component_id -> Logic.Rule.t -> int array -> bool

  val has_class : t -> Program.component_id -> Logic.Rule.t -> bool
  (** Whether some key of [c] and [r]'s name was added. *)
end

type grounded = {
  gop : t;
  groups : group list;  (** provenance, in view order, one per view rule *)
  universe : Logic.Term.t list;  (** the schema universe instantiated over *)
}

val ground_groups :
  ?budget:Budget.t ->
  ?max_instances:int ->
  ?depth:int ->
  Program.t ->
  Program.component_id ->
  grounded
(** {!ground} with provenance: the grounding (equal to {!ground}'s),
    one group per view rule, in view order, and the schema universe.
    Flattening the groups gives exactly the instances the grounding's
    rules come from, in order, so a caller that edits one group and
    splices the edit in ({!splice}) gets a grounding bit-identical to
    grounding from scratch — the basis of incremental re-grounding
    ([Inc.Reground]). *)

val schema_universe :
  ?depth:int ->
  Program.t ->
  Program.component_id ->
  Logic.Term.t list
(** The instantiation universe {!ground} uses for this view: the Herbrand
    universe of the {e schema} rules' signature (before instantiation and
    builtin filtering).  Two views with equal schema universes instantiate
    every shared rule identically. *)

type edit =
  | Keep of int  (** the next [k] rules of the old grounding stay *)
  | Drop of int  (** the next [k] rules of the old grounding go *)
  | Insert of group
      (** the group's instances come in here, its keys over the old
          grounding's atom ids and the [fresh] atoms past them *)

val splice :
  t -> program:Program.t -> fresh:Logic.Atom.t array -> edit list -> t * int array
(** [splice g ~program ~fresh edits] is the grounding of the tagged view
    that [edits] make of [g]'s (the edits walk [g]'s rules in order and
    must cover all of them), built by integer work: an inserted instance
    is built from its key (the head, then the body sorted in
    {!Logic.Literal.compare} order and deduplicated), with no rule built
    and no atom interned.  Id [n_atoms g + k] in a key stands for
    [fresh.(k)].  The atoms are numbered as scratch grounding numbers
    them, by first occurrence, and the second result maps every old and
    fresh id to its new one ([-1]: the atom vanished).

    When no old atom moves, kept atoms keep their ids, fresh ones are
    appended, vanished ones truncated, later rule indices shift, and
    the head, body and suppression rows are patched (the suppression
    rows of a head atom are rebuilt only when a rule with that head came
    or went, against [program]'s order).  Otherwise every rule is
    relabelled and the rows rebuilt.  Either way the result is
    structurally equal to interning the edited tagged list from scratch
    (the [diff-inc] suite checks it). *)

val n_atoms : t -> int
val n_rules : t -> int

val atom_id : t -> Logic.Atom.t -> int option

val active_base : t -> Logic.Atom.t list
(** The atoms the ground rules mention, sorted by {!Logic.Atom.compare}
    (computed on each call). *)

val rule_src : t -> int -> Logic.Rule.t
(** Decode rule [i] back to a symbolic ground rule. *)

type stats = {
  atoms : int;
  rules : int;
  body_literals : int;
  overruling_edges : int;
  defeating_edges : int;
}

val stats : t -> stats
(** Size diagnostics: the fixpoint engines cost
    [O(body_literals + overruling_edges + defeating_edges)] per run. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Three-valued assignments over the interned atoms} *)

module Values : sig
  type gop := t

  type t
  (** Mutable dense 3-valued assignment (one slot per atom id). *)

  val create : gop -> t
  (** All atoms undefined. *)

  val copy : t -> t

  val value : t -> int -> Logic.Interp.value
  val set : t -> int -> bool -> unit
  (** Raises [Invalid_argument] on an inconsistent re-assignment. *)

  val unset : t -> int -> unit
  val defined : t -> int -> bool
  val equal : t -> t -> bool

  val of_interp : gop -> Logic.Interp.t -> t * Logic.Literal.t list
  (** Encode an interpretation; the second result lists literals over atoms
      that do not occur in the ground program (they take part in no rule,
      but make the interpretation non-assumption-free). *)

  val of_codes : int array -> t
  (** Adopt a raw code array — one slot per atom id, [0] undefined, [1]
      true, [2] false — as an assignment {e without copying}.  This is the
      bridge used by the compiled kernel ([Solve]), whose flat solver
      state is exactly this encoding: the model checks can then run on
      the live array with no per-leaf translation.  The caller must keep
      the codes in range. *)

  val to_interp : gop -> t -> Logic.Interp.t

  val value_lit : gop -> t -> Logic.Literal.t -> Logic.Interp.value
  (** The value of a ground literal: [Undefined] for an atom the ground
      program does not mention. *)

  val carry : from:gop -> t -> gop -> t
  (** [carry ~from v g]: a fresh assignment over [g]'s atoms giving each
      the value [v] gives it over [from]'s ([Undefined] when [from] does
      not mention it).  The prefix of atom ids [g] shares with [from] —
      all the old atoms a {!splice} kept — is copied in one blit; the
      other atoms are looked up by value.  [v] is not modified. *)
end
