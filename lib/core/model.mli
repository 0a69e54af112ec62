(** Models of an ordered program in a component (paper, Definition 3),
    assumption sets (Definition 6), assumption-free models (Definition 7)
    and the enabled-version characterisation (Definition 8, Theorem 1(a)).

    An interpretation [M] is a {e model} for [P] in [C] iff

    - (a) for each literal [A in M], every rule [r] with [H(r) = -A] is
      either blocked or overruled by an {e applied} rule; and
    - (b) for each undefined atom [A], every {e applicable} rule [r] with
      [H(r) = A] or [H(r) = -A] is either overruled or defeated.

    [M] is {e assumption-free} iff no non-empty subset of [M] is an
    assumption set w.r.t. [M]; by Theorem 1(a) this holds iff [M] is the
    least fixpoint of the immediate-consequence transformation of the
    {e enabled version} [C^e] (the applied rules of [ground(C-star)]). *)

val is_model : Gop.t -> Logic.Interp.t -> bool
(** Definition 3.  Literals over atoms that occur in no ground rule are
    permitted (conditions (a)/(b) are vacuous for them). *)

val is_model_v : Gop.t -> Gop.Values.t -> bool
(** {!is_model} directly on an encoded assignment — the form used by the
    enumeration engines, which keep their candidates encoded and only
    convert accepted models to symbolic interpretations. *)

val violations : Gop.t -> Logic.Interp.t -> string list
(** Human-readable reasons why the interpretation fails Definition 3
    (empty iff {!is_model}). *)

val enabled_version :
  ?semantics:[ `Corrected | `Literal ] -> Gop.t -> Gop.Values.t -> int list
(** Indices of the enabled rules — the paper's [C^e] (Definition 8).
    [`Corrected] (default): applied and {e non-suppressed} — the paper
    admits every applied rule, but an applied rule that is overruled or
    defeated must not ground its head (Definition 6 discounts such
    rules), and with the literal reading Theorem 1(a) fails (see the
    deviations test suite).  [`Literal]: the paper's reading, kept for
    side-by-side comparison. *)

val is_assumption_free_v :
  ?semantics:[ `Corrected | `Literal ] -> Gop.t -> Gop.Values.t -> bool
(** {!is_assumption_free} directly on an encoded assignment (which, being
    encoded, cannot mention atoms outside the ground program). *)

val is_assumption_free :
  ?semantics:[ `Corrected | `Literal ] -> Gop.t -> Logic.Interp.t -> bool
(** Theorem 1(a): [M] is a model and [T^inf_{C^e}(0) = M].  Literals over
    atoms outside the ground program are themselves assumption sets, so
    their presence makes this [false].  With [`Corrected] (default) this
    agrees with {!largest_assumption_set} on every model; with
    [`Literal] the two can disagree — that disagreement is the paper's
    Theorem 1(a) failing as stated. *)

val largest_assumption_set : Gop.t -> Logic.Interp.t -> Logic.Literal.t list
(** Direct Definition 6: the union of all assumption sets w.r.t. the
    interpretation (assumption sets are closed under union), computed as a
    greatest fixpoint.  Empty iff no assumption set exists.  Independent of
    {!is_assumption_free}'s method — the two agree on models (Theorem 1(a)),
    which the test suite checks by property. *)

val is_assumption_set : Gop.t -> Logic.Interp.t -> Logic.Literal.t list -> bool
(** Definition 6 membership test for an explicit candidate set. *)
