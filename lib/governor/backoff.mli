(** Jittered exponential backoff for reconnect loops.

    A [t] tracks the delay to use before the next attempt: it starts at
    [base], doubles per {!next} up to [cap], and each returned delay is
    scaled by a uniform factor in [[1/2, 1]] so simultaneously
    disconnected peers do not reconnect in lockstep.
    {!reset} is called on success, returning the schedule to [base].

    Pure and self-contained: randomness comes from an internal LCG, so a
    fixed [seed] gives a reproducible delay sequence (tests) while
    distinct seeds (e.g. hashed from a connection address) de-correlate
    real deployments. *)

type t

val make : ?seed:int -> base:float -> cap:float -> unit -> t
(** [make ~base ~cap ()] with delays in seconds.  Raises
    [Invalid_argument] on a non-positive base or a cap below the base. *)

val next : t -> float
(** The delay to sleep before the next attempt (jittered), advancing
    the schedule. *)

val reset : t -> unit
(** Return the schedule to [base] (call after a successful attempt). *)
