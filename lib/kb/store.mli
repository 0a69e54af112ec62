(** Knowledge-base state: the object-oriented reading of ordered logic
    programming (paper, Section 5).

    An object is a component; [isa] parents place it {e below} them in the
    paper's order, so it inherits their rules and its local rules overrule
    inherited ones (defaults and exceptions).  Versioning follows the
    paper's remark that "a most specific module can be thought of as the
    new version of a more general module": a new version of an object is a
    fresh component placed below the previous version.

    A store holds state only: objects, isa links, rules, preferences and
    version counters, with their mutations and dumps.  Questions are
    answered by {!Session}, which memoizes them per viewpoint; the two
    uncached functions at the end exist as the from-scratch reference. *)

type t

val create : unit -> t

val define : t -> ?isa:string list -> string -> Logic.Rule.t list -> unit
(** [define kb ~isa name rules] adds an object.  Raises [Invalid_argument]
    on duplicate names or unknown parents. *)

val load : t -> string -> unit
(** Load a whole source file (components become objects, [extends] and
    [order] become isa links).  Raises [Invalid_argument] on errors — a
    duplicate or unknown name, an isa cycle through the loaded
    components, a preference cycle — before changing anything: a failed
    load leaves the store as it was. *)

val add_rule : t -> obj:string -> Logic.Rule.t -> unit

val remove_rule : t -> obj:string -> Logic.Rule.t -> bool
(** Remove one rule (syntactic equality); [false] if absent. *)

val objects : t -> string list
(** Object names in definition order. *)

val parents : t -> string -> string list
val rules : t -> string -> Logic.Rule.t list

(** {1 Preferences}

    Rule preferences refine the object order between {e named} rules:
    [set_preference ~rule:"a" ~over:"b"] makes rules named [a] overrule
    rules named [b] where they conflict, even inside one object (see
    {!Prefer}).  The pair set is part of the store's state — dumped,
    logged and replicated like the objects themselves. *)

val preferences : t -> (string * string) list
(** The (preferred, over) pairs in declaration order. *)

val set_preference : t -> rule:string -> over:string -> unit
(** Add one pair (idempotent).  Raises {!Ordered.Diag.Error}
    ([Preference_cycle]) if the pair set alone would stop being a strict
    order; unknown rule names are allowed here — they are only rejected
    when a preferred query resolves names against a concrete view. *)

val clear_preference : t -> rule:string -> over:string -> bool
(** Remove one pair; [false] if absent. *)

(** {1 Mutations}

    The store's mutation vocabulary, reified: every state change a KB can
    undergo is one of these values, and {!apply} replays one with exactly
    the semantics of the corresponding function above.  The persistence
    subsystem ({!Persist}) serialises this type into its write-ahead log,
    and crash recovery is [List.iter (apply kb)] over the decoded
    records — so determinism matters: replaying a recorded sequence
    against the recorded starting state reproduces the store (including
    generated version names, which depend only on the version
    counters). *)

type mutation =
  | Define of { name : string; isa : string list; rules : Logic.Rule.t list }
  | Add_rule of { obj : string; rule : Logic.Rule.t }
  | Remove_rule of { obj : string; rule : Logic.Rule.t }
  | New_version of { name : string; rules : Logic.Rule.t list option }
  | Load of { src : string }
  | Set_preference of { rule : string; over : string }
  | Clear_preference of { rule : string; over : string }

val apply : t -> mutation -> unit
(** Replay one mutation ({!Remove_rule} of an absent rule and the result
    of {!New_version} are ignored).  Raises exactly what the underlying
    operation would. *)

(** {1 Dumps}

    A [dump] is the full serialisable state of a store — objects with
    parents and rules in definition order, plus the versioning maps that
    {!to_source} loses.  [of_dump (dump kb)] is observationally equal to
    [kb], which is what snapshots are made of. *)

type dump = {
  dump_objs : (string * string list * Logic.Rule.t list) list;
      (** (name, parents, rules) in definition order *)
  dump_latest : (string * string) list;  (** base object -> latest version *)
  dump_counts : (string * int) list;  (** base object -> version count *)
  dump_prefs : (string * string) list;  (** rule preferences, decl order *)
}

val dump : t -> dump
val of_dump : dump -> t
(** Raises [Invalid_argument] when the dump's isa links are not a
    strict order. *)

val copy : t -> t
(** An independent store with the same objects, parents, rules, version
    counters and (shared, immutable) ordered program, like
    [of_dump (dump kb)].  Mutating the original never changes what the
    copy observes (and vice versa) — {!Kb.Session} publishes copies as
    immutable read snapshots.  One record per object: O(objects). *)

val restore : t -> dump -> unit
(** Replace the store's entire state with [dump] in place, keeping the
    identity of [t] (every alias sees the new state).  Replication uses
    this for snapshot bootstrap. *)

(** {1 Versioning} *)

val new_version : t -> ?rules:Logic.Rule.t list -> string -> string
(** [new_version kb name] creates the next version of object [name] — a
    fresh object [name@2], [name@3], ... placed below the latest existing
    version — and returns its name.  [rules] seeds the new version's local
    rules (they overrule the older version's where they conflict). *)

val latest_version : t -> string -> string
(** The most recent version of an object (itself if never versioned). *)

val versions : t -> string -> string list
(** All versions, oldest first (starting with the base object). *)

(** {1 Programs} *)

val to_program : t -> Ordered.Program.t
(** The underlying ordered program.  It is built when a load, a dump or
    {!create} sets the objects, patched by rule edits, and extended by
    {!define} and {!new_version}, so this is a field read.  Every write
    that would make the order invalid fails, so there always is one. *)

val to_source : t -> string
(** The knowledge base in surface syntax; {!load} of the result into a
    fresh KB reproduces the same objects, parents and rules (versioning
    counters are not serialised — versions reload as ordinary objects). *)

val prefer_spec : t -> obj:string -> Prefer.Spec.t
(** The validated preference specification for the view from [obj]. *)

(** {1 From-scratch answers}

    Uncached: each call grounds the view from [obj] afresh.  They are
    the reference the serving benchmark checks sampled server answers
    against; {!Session} serves the same questions from its caches. *)

val query :
  ?budget:Ordered.Budget.t ->
  t ->
  obj:string ->
  Logic.Literal.t ->
  Logic.Interp.value
(** Truth of a ground literal in the least model viewed from [obj];
    raises [Invalid_argument] on a non-ground literal. *)

val stable_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime
(** The kernel's stable models viewed from [obj] ({!Solve.Kernel}). *)
