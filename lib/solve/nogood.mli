(** Bounded store of learned nogoods over search decisions.

    A nogood is a set of decisions — encoded [atom * 3 + dval], with
    [dval] 0 for frozen-undefined, 1 for true, 2 for false — whose
    propagation closure conflicts.  Propagation is monotone in the
    decisions, so a nogood is valid on every branch, not just the one it
    was learned on.  Membership of the current decision stack is tracked
    incrementally ([push]/[pop]), making {!blocks} a constant-time scan of
    the candidate's occurrence list.  Eviction is deterministic
    (activity, then store index), keeping the whole search replayable. *)

type t

val create : cap:int -> t
(** [cap] bounds the store size at maintenance points; between two calls
    to {!maintain} the store may transiently exceed it. *)

val add : t -> int array -> unit
(** Record a learned nogood (sorted decision codes).  Precondition: every
    element is on the current decision stack — the kernel learns at the
    conflict, before backtracking. *)

val blocks : t -> int -> bool
(** Would committing this decision complete a nogood?  Bumps the blocking
    nogood's activity on a hit. *)

val push : t -> int -> unit
(** The decision is now on the stack. *)

val pop : t -> int -> unit
(** The decision left the stack (inverse of {!push}). *)

val decay : t -> unit
(** Age all activities one conflict's worth. *)

val maintain : t -> in_force:(int -> bool) -> int
(** Evict down to half the cap (size-[<= 2] nogoods are always kept),
    rebuilding the in-force counters from the predicate, which must
    answer whether a decision code is on the current stack.  Returns the
    number evicted.  Call only from a conflict-free state — the kernel
    does so at restarts. *)
