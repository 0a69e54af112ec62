(** Knowledge bases: the object-oriented reading of ordered logic
    programming (paper, Section 5).

    An object is a component; [isa] parents place it {e below} them in the
    paper's order, so it inherits their rules and its local rules overrule
    inherited ones (defaults and exceptions).  Versioning follows the
    paper's remark that "a most specific module can be thought of as the
    new version of a more general module": a new version of an object is a
    fresh component placed below the previous version.

    Queries are answered against the least model of the ground ordered
    program viewed from the queried object (the constructive,
    assumption-free semantics of Section 2); [stable_models] exposes the
    credulous alternatives. *)

type t

val create : unit -> t

val define : t -> ?isa:string list -> string -> Logic.Rule.t list -> unit
(** [define kb ~isa name rules] adds an object.  Raises [Invalid_argument]
    on duplicate names or unknown parents. *)

val define_src : t -> ?isa:string list -> string -> string -> unit
(** Like {!define} with the rules given in surface syntax. *)

val load : t -> string -> unit
(** Load a whole source file (components become objects, [extends] and
    [order] become isa links).  Raises [Invalid_argument] on errors. *)

val add_rule : t -> obj:string -> Logic.Rule.t -> unit
val add_rule_src : t -> obj:string -> string -> unit
val add_fact : t -> obj:string -> Logic.Literal.t -> unit

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

val pp_mutation : Format.formatter -> mutation -> unit

(** {1 Dumps}

    A [dump] is the full serialisable state of a store — objects with
    parents and rules in definition order, plus the versioning maps that
    {!to_source} loses.  [of_dump (dump kb)] is observationally equal to
    [kb] (caches aside), which is what snapshots are made of. *)

type dump = {
  dump_objs : (string * string list * Logic.Rule.t list) list;
      (** (name, parents, rules) in definition order *)
  dump_latest : (string * string) list;  (** base object -> latest version *)
  dump_counts : (string * int) list;  (** base object -> version count *)
  dump_prefs : (string * string) list;  (** rule preferences, decl order *)
}

val dump : t -> dump
val of_dump : dump -> t

val copy : t -> t
(** [of_dump (dump kb)]: an independent store with the same objects,
    parents, rules and version counters.  Mutating the original never
    changes what the copy observes (and vice versa) — {!Kb.Session}
    publishes copies as immutable read snapshots. *)

val restore : t -> dump -> unit
(** Replace the store's entire state with [dump] in place, keeping the
    identity of [t] (every alias sees the new state; caches are
    dropped).  Replication uses this for snapshot bootstrap. *)

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

(** {1 Queries} *)

val query :
  ?budget:Ordered.Budget.t ->
  t ->
  obj:string ->
  Logic.Literal.t ->
  Logic.Interp.value
(** Truth of a ground literal in the least model viewed from [obj].
    [Logic.Interp.True] means the literal holds; querying [l] and [neg l]
    distinguishes false from undefined.  [budget] governs grounding and
    the fixpoint; exhaustion raises [Ordered.Budget.Exhausted]. *)

val query_src :
  ?budget:Ordered.Budget.t -> t -> obj:string -> string -> Logic.Interp.value

val least_model :
  ?budget:Ordered.Budget.t -> t -> obj:string -> Logic.Interp.t

val stable_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime
(** Anytime, like {!Ordered.Stable.stable_models}: a [Partial] result
    carries the stable models found before the budget ran out.  The
    compiled flat-array kernel ({!Solve.Kernel}) enumerates, so models
    come in the pruned search's order; [stats] accumulates search
    effort, solver counters included. *)

val assumption_free_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime
(** All assumption-free models viewed from [obj] (the stable models are
    their maximal elements); same engine, [stats] and anytime contract
    as {!stable_models}. *)

val explain : t -> obj:string -> Logic.Literal.t -> Ordered.Explain.t

val preferred_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  t ->
  obj:string ->
  Logic.Interp.t list Ordered.Budget.anytime
(** The preferred models viewed from [obj] under the store's preference
    pairs (with no pairs: exactly {!stable_models}): the kernel's stable
    models of the {!Prefer.Compile} translation.  Raises
    {!Ordered.Diag.Error} if a preference names a rule absent from this
    view. *)

val prefer_spec : t -> obj:string -> Prefer.Spec.t
(** The validated preference specification for the view from [obj]. *)

val prefer_gop : ?budget:Ordered.Budget.t -> t -> obj:string -> Ordered.Gop.t
(** The cached grounding of the compiled preference program for [obj]
    (reground on modification, like {!gop}). *)

val to_program : t -> Ordered.Program.t
(** The underlying ordered program (rebuilt on demand). *)

val to_source : t -> string
(** The knowledge base in surface syntax; {!load} of the result into a
    fresh KB reproduces the same objects, parents and rules (versioning
    counters are not serialised — versions reload as ordinary objects). *)

val gop : ?budget:Ordered.Budget.t -> t -> obj:string -> Ordered.Gop.t
(** The cached ground view from an object (reground on modification; the
    budget only governs a call that actually regrounds). *)
