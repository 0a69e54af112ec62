(** The affected cone of a delta over a ground ordered program: every
    atom whose least-fixpoint value could differ from the pre-mutation
    fixpoint — the atoms reachable from the delta's seeds through body
    rows (an atom reaches the head of each rule that reads it).

    Atoms outside the cone provably keep their old value: all their head
    rules, those rules' bodies, their suppressor sets and the suppressors'
    blocked statuses are untouched by the delta, so the sub-fixpoint
    restricted to the complement coincides in the old and new program
    (docs/INCREMENTAL.md spells out the induction).  No suppression edge
    needs walking: a rule's contradictors share its head atom. *)

type t = bool array
(** Atom id -> in the cone. *)

val affected : Ordered.Gop.t -> Delta.t -> t
(** Computed on the {e repaired} grounding ([Reground]'s output), whose
    atom ids the delta's [seeds] are. *)
