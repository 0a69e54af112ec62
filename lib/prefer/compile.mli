(** Compiling rule preferences away.

    In the style of Delgrande–Schaub's compiled preferences (cs/0003028),
    a preference specification is translated into a {e plain} ordered
    program that an unmodified solver evaluates: every rule of the view
    is placed in a fresh component of its own, the original component
    order is restricted to those singleton components, each
    [prefer a > b] becomes one more component-order edge [c(a) < c(b)],
    and an empty bottom component [#view] extends them all.  The stable
    models of the compiled program at [#view] — enumerated by the
    unmodified compiled kernel, [Solve.Kernel.stable_models (gop c)] —
    are exactly the preferred models: the paper's overruling machinery
    (Definition 2) applied to the preference-refined rule order.

    With [~trace:true] the compilation also emits a fresh {e control
    atom} [ap@name] per named rule, derived exactly when an instance of
    that rule is applied, so a model shows which preferred rules fired;
    the [ap@] prefix is reserved in that mode. *)

type t = private {
  spec : Spec.t;
  program : Ordered.Program.t;  (** the compiled plain ordered program *)
  viewpoint : Ordered.Program.component_id;  (** id of [#view] *)
  trace : bool;
}

val compile : ?trace:bool -> Spec.t -> t
(** Raises {!Ordered.Diag.Error} ([Invalid_input]) in trace mode if a
    source predicate uses the reserved [ap@] prefix.  (The spec itself
    was already validated by {!Spec.make}.) *)

val gop :
  ?budget:Ordered.Budget.t ->
  ?max_instances:int ->
  ?depth:int ->
  ?extra_constants:Logic.Term.t list ->
  t ->
  Ordered.Gop.t
(** Ground the compiled program at [#view].  Its stable models are the
    preferred models; in trace mode they include the [ap@] control
    atoms, which {!project} strips. *)

val project : Logic.Interp.t -> Logic.Interp.t
(** Drop [ap@] control atoms from a model of a traced compilation. *)

val is_control : Logic.Atom.t -> bool

val control_prefix : string
(** ["ap@"]. *)
