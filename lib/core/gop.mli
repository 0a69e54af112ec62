(** Ground ordered programs: the grounding of [C*] for one viewpoint
    component [C], interned for the fixpoint engines and the search
    kernel.

    Every ground rule carries the component it comes from ([C(r)] in the
    paper).  For Definition 2 we precompute, for each rule [r], its
    {e overrulers} (rules [r'] with [H(r') = -H(r)] and [C(r') < C(r)]) and
    its {e defeaters} ([H(r') = -H(r)] and [C(r') <> C(r)] or
    [C(r') = C(r)]).  A non-blocked overruler makes [r] {e overruled}; a
    non-blocked defeater makes [r] {e defeated}; either way [r] is
    {e suppressed} and cannot fire in the ordered immediate transformation
    [V].

    {b Layout.}  Atoms and rules are dense ints, and a literal is the
    int {!code}.  Every relation is held once, as CSR (offset + payload)
    int arrays: row [x] of relation [r] is [r.(r_off.(x))] up to
    [r.(r_off.(x + 1)) - 1], rows ascending.  The search kernel
    ([Solve.Kernel]) reads these arrays directly, and the fixpoint
    engines and the model checks walk the same rows. *)

type index
(** Atom -> id, as {!atom_id} reads it.  A splice that moves no atom
    shares its predecessor's hash table and adds only a short list of
    the atoms past the kept prefix. *)

val index : Logic.Atom.t array -> index
(** The index of an atom table (atom id -> atom). *)

type t = {
  program : Program.t;
  comp : Program.component_id;  (** the viewpoint component *)
  atoms : Logic.Atom.t array;  (** atom id -> atom *)
  ids : index;
  head : int array;  (** rule -> its head literal code *)
  rule_comp : Program.component_id array;  (** rule -> [C(r)] *)
  rule_name : string option array;
      (** rule -> the name of the source rule it is an instance of *)
  body_off : int array;  (** rule -> offset into [body]; [n_rules + 1] *)
  body : int array;
      (** body literal codes, per rule deduplicated and in
          {!Logic.Literal.compare} order *)
  occ_off : int array;
      (** literal code -> offset into [occ]; [2 n_atoms + 1] entries *)
  occ : int array;  (** the rules whose body holds the literal *)
  head_off : int array;  (** atom -> offset into [by_head]; [n_atoms + 1] *)
  by_head : int array;  (** the rules with that head atom, either polarity *)
  sup_off : int array;  (** rule -> offset into [sup]; [n_rules + 1] *)
  def_off : int array;
      (** rule -> offset of its first defeater in [sup]: its overrulers
          sit in [[sup_off.(i), def_off.(i))], its defeaters in
          [[def_off.(i), sup_off.(i + 1))] *)
  sup : int array;  (** the rule's suppressors: overrulers, then defeaters *)
  suppresses_off : int array;
      (** rule -> offset into [suppresses]; [n_rules + 1] entries *)
  suppresses : int array;
      (** the inverse of [sup]: the rules the rule overrules or defeats *)
}

val code : int -> bool -> int
(** [code a pol]: the literal code of atom [a] with polarity [pol] —
    [2a + 1] for [A], [2a] for [-A], the convention of the instance keys
    ({!group}) — so [c lsr 1] is the atom of code [c] and [c land 1 = 1]
    its polarity.  An assignment [a := pol] makes [code a pol] true and
    [code a (not pol)] false, so one row of [occ] per code serves both
    propagation directions. *)

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

    {b Bit identity.}  Every array is structurally equal to interning,
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

    The kept rules' table is copied, every code relabelled, and the rows
    rebuilt as a scratch grounding builds them.  When no old atom
    moves, the intern table is the old one, patched.  Either way every
    array is structurally equal to interning the edited tagged list from
    scratch (the [diff-inc] suite checks it). *)

val n_atoms : t -> int
val n_rules : t -> int

val atom_id : t -> Logic.Atom.t -> int option

val active_base : t -> Logic.Atom.t list
(** The atoms the ground rules mention, sorted by {!Logic.Atom.compare}
    (computed on each call). *)

val rule_src : t -> int -> Logic.Rule.t
(** Decode rule [i] back to a symbolic ground rule. *)

val literal : t -> int -> Logic.Literal.t
(** Decode a literal code. *)

(** {1 Rows} *)

val exists_body : t -> int -> (int -> bool) -> bool
(** [exists_body g i p]: [p] holds for some body literal code of rule [i]. *)

val exists_overruler : t -> int -> (int -> bool) -> bool
val exists_defeater : t -> int -> (int -> bool) -> bool

val iter_about : t -> int -> (int -> unit) -> unit
(** [iter_about g a f] applies [f] to the rules with head atom [a],
    highest index first: the order the listings of [Explain] and [Model]
    show them in. *)

val exists_about : t -> int -> (int -> bool) -> bool
(** [exists_about g a p]: [p] holds for some rule with head atom [a],
    tried in {!iter_about}'s order. *)

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
      bridge used by the compiled kernel ([Solve]), whose solver
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
