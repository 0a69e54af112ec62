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
    (Definition 2) applied to the preference-refined rule order. *)

type t = private {
  spec : Spec.t;
  program : Ordered.Program.t;  (** the compiled plain ordered program *)
  viewpoint : Ordered.Program.component_id;  (** id of [#view] *)
}

val compile : Spec.t -> t
(** Compile a spec {!Spec.make} has validated (its rule names and the
    combined order). *)

val gop :
  ?budget:Ordered.Budget.t ->
  ?max_instances:int ->
  ?depth:int ->
  t ->
  Ordered.Gop.t
(** Ground the compiled program at [#view].  Its stable models are the
    preferred models. *)
