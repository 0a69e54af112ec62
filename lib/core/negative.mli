(** Semantics of negative programs (paper, Section 4).

    A negative program is a plain rule set whose heads may be negative.
    The {e 3-level version} [3V(C)] is the ordered program

    {v <{ -B_C, C+, C- }, { C- < C+, C+ < -B_C, C- < -B_C }> v}

    where [C+] holds the seminegative rules of [C] plus the reflexive
    rules, and [C-] holds the rules with negative heads — read as
    {e exceptions} to the general rules of [C+].  Definition 10 takes the
    models / assumption-free models / stable models of [C] to be those of
    [3V(C)] in [C-].

    Definition 11 restates the same semantics directly, without ordered
    programs; Theorem 2 asserts the equivalence, which the test suite
    checks both on the paper's examples and by property on random
    programs. *)

val cwa_component : string
(** ["cwa"] — the paper's [-B_C]. *)

val three_level : Logic.Rule.t list -> Program.t
(** The [3V(C)] construction. *)

val ground_3v : ?depth:int -> Logic.Rule.t list -> Gop.t
(** [3V(C)] grounded at the exceptions component [C-]. *)

(** {1 Definition 10 — semantics via the 3-level version}

    The stable models of [C] are those of {!ground_3v}; enumerate them
    with [Solve.Kernel.stable_models (ground_3v rules)]. *)

val is_model : ?depth:int -> Logic.Rule.t list -> Logic.Interp.t -> bool
val is_assumption_free : ?depth:int -> Logic.Rule.t list -> Logic.Interp.t -> bool
val least_model : ?depth:int -> Logic.Rule.t list -> Logic.Interp.t

(** {1 Definition 11 — direct semantics}

    These work on the ground program and use only classical notions: an
    interpretation [I] is a model iff every ground rule [r] has
    [value(H(r)) >= value(B(r))] or an {e exception}; an assumption set is
    a subset of [I+] in the sense of [SZ].

    Two corrections (both forced by Theorem 2, both documented with
    counterexamples in the [deviations] test suite and EXPERIMENTS.md):

    - the exception clause: a {e false} head is excused by an exception
      rule with {e true} body (the paper's literal clause), while an
      {e undefined} head is excused by an exception rule whose body is
      merely {e not false} — mirroring Definition 3(b) just as the
      literal clause mirrors 3(a);
    - assumption sets range over all of [I], not just [I+]: under the
      corrected enabled version (Definition 8 — see {!Model}), a
      closed-world fact overruled by a non-blocked positive rule grounds
      nothing, so a negative literal can rest on assumptions too. *)

val direct_is_model : Logic.Rule.t list -> Logic.Interp.t -> bool
(** [direct_is_model ground_rules i] — Definition 11(a) on an explicitly
    ground program. *)

val direct_is_assumption_free : Logic.Rule.t list -> Logic.Interp.t -> bool
(** Definition 11(b): model with no non-empty assumption subset of [I+]. *)

val direct_stable_models : ?limit:int -> Logic.Rule.t list -> Logic.Interp.t list
(** Definition 11(c): maximal assumption-free models, by exhaustive
    enumeration over the ground atoms (exponential; for small programs). *)

val ground_program : ?depth:int -> Logic.Rule.t list -> Logic.Rule.t list
(** Naive grounding of a negative program (builtins evaluated away),
    suitable input for the [direct_*] functions. *)
