(** Resource governance for long-running solver paths.

    A budget bundles the limits one evaluation is allowed to consume:

    - a wall-clock {e deadline} ([timeout], seconds from creation);
    - a {e step} budget (units of solver work: fixpoint queue pops,
      enumeration nodes, grounding candidates);
    - an optional deterministic {e fault injection} point for tests.

    Long-running loops call {!tick} (one unit of work) or {!check} (poll
    without consuming); both raise {!Exhausted} once any limit is hit.  Exhaustion by a
    real limit is {e sticky}: every later tick re-raises, so an exhausted
    budget cannot be accidentally reused.  The clock is polled every 64
    ticks (and on the first), so deadline overshoot is bounded by 64 units
    of work.

    Enumeration entry points catch {!Exhausted} and return an {!anytime}
    value: [Complete] results, or [Partial] results found so far together
    with the machine-readable reason. *)

type reason =
  | Deadline  (** wall-clock timeout elapsed *)
  | Steps  (** step budget consumed *)
  | Fault  (** deterministic fault injection ({!with_trip_at}) *)

exception Exhausted of reason

type t

val make : ?timeout:float -> ?max_steps:int -> unit -> t
(** Fresh budget.  [timeout] is seconds from now ([0.] is already
    exhausted); omitted limits are infinite. *)

val unlimited : t
(** The shared no-limit budget (the default everywhere).  Ticking it only
    advances its counters; it never raises. *)

val with_trip_at : step:int -> unit -> t
(** Deterministic fault injection: an otherwise unlimited budget whose
    [step]-th {!tick} raises [Exhausted Fault] — exactly once; subsequent
    ticks succeed.  Tests use it to force exhaustion at an exact point. *)

val tick : t -> unit
(** Count one unit of work.  Raises {!Exhausted} when a limit is hit. *)

val check : t -> unit
(** Poll the deadline without consuming a step
    (always reads the clock; use at loop-round granularity). *)

val poll_deadline : t -> unit
(** Poll only the deadline: no step is used,
    and a step limit that already tripped does not re-raise
    (unlike {!check}), so work that merely post-processes a step-limited
    prefix can still finish while a deadline stops it. *)

val steps : t -> int

val exhausted : t -> reason option
(** [Some r] once the budget has tripped on a real limit (never [Fault]). *)

val reason_to_string : reason -> string
(** Machine-readable lowercase tag: ["deadline"], ["steps"],
    ["fault"]. *)

(** {1 Anytime results} *)

type 'a anytime =
  | Complete of 'a
  | Partial of 'a * reason
      (** what was found before the budget ran out, and why it stopped *)

val value : 'a anytime -> 'a
val is_complete : 'a anytime -> bool
