(** The affected cone of a delta over a ground ordered program: every
    atom whose least-fixpoint value could differ from the pre-mutation
    fixpoint, closed over body-dependency {e and} suppression edges.

    Atoms outside the cone provably keep their old value: all their head
    rules, those rules' bodies, their suppressor sets and the suppressors'
    blocked statuses are untouched by the delta, so the sub-fixpoint
    restricted to the complement coincides in the old and new program
    (docs/INCREMENTAL.md spells out the induction). *)

type t = { atoms : bool array; rules : bool array }

val affected : Ordered.Gop.t -> Delta.t -> t
(** Computed on the {e repaired} grounding ([Reground]'s output), whose
    rule indices and atom ids the delta's [added] and [seeds] are. *)
