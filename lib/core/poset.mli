(** The component partial order of an ordered program (paper, Definition 1).

    Components are identified by dense integer ids.  [lt a b] is the
    paper's [a < b]: [a] is {e more specific} (lower) than [b] and inherits
    [b]'s rules; rules of [a] may overrule rules of [b].  The order is
    strict: irreflexive, antisymmetric, transitive (we store, per
    component, the sorted array of its strict ancestors — the transitive
    closure cone by cone — and reject cycles). *)

type t

val make : n:int -> pairs:(int * int) list -> (t, string) result
(** [make ~n ~pairs] builds the order over ids [0 .. n-1] from declared
    pairs [(lo, hi)] meaning [lo < hi].  Returns [Error _] if the closure
    would make some [a < a] (a cycle; the message names the smallest such
    id), or if an id is out of range (the first such pair).  Costs
    O(n + pairs + the sum of the cone sizes). *)

val extend : t -> parents:int list -> t
(** [extend t ~parents] is [t] with one more id, [size t], placed below
    [parents] (declared pairs [(size t, p)]) — equal to {!make} over the
    old pairs and the new ones.  Nothing lies below a fresh id, so no
    cycle can arise; its cone is read off its parents' cones, and the
    rows of the other ids are shared.  O(size + the new cone).  Raises
    [Invalid_argument] if a parent is out of range. *)

val lt : t -> int -> int -> bool
(** Strict order [a < b] (transitively closed): a binary search in [a]'s
    cone. *)

val leq : t -> int -> int -> bool
(** [a < b] or [a = b]. *)

val incomparable : t -> int -> int -> bool
(** The paper's [a <> b]: distinct and neither [a < b] nor [b < a]. *)

val above : t -> int -> int list
(** [above t a]: all [b] with [a <= b], ascending (includes [a]) — the
    components whose rules are visible from [a] (used to form [C*]).
    O(cone of [a]). *)

val minimal : t -> int list
(** Ids with nothing below them (most specific components). *)
