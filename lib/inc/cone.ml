module Gop = Ordered.Gop

type t = bool array

(* The closure over body rows from the seeds (docs/INCREMENTAL.md holds
   the soundness proof): a marked atom marks the head atom of every rule
   that reads it in its body.  The seeds are the heads of every added
   and removed instance, so every rule whose suppressor row changed has
   a marked head.  A rule and the rules it suppresses share one head
   atom (contradictors, Definition 2), so a body change that flips a
   suppressor's blocked status lands on an atom this walk already marks.
   Contrapositive: an unmarked atom has only rules whose bodies and
   suppressors evaluate identically in the old and new program, so its
   old fixpoint value is still exact. *)
let affected (g : Gop.t) (d : Delta.t) =
  let atoms = Array.make (Gop.n_atoms g) false in
  let rec mark a =
    if not atoms.(a) then begin
      atoms.(a) <- true;
      (* the body rows of both literal codes of [a], which are adjacent *)
      let first = g.occ_off.(Gop.code a false)
      and last = g.occ_off.(Gop.code a true + 1) in
      for k = first to last - 1 do
        mark (g.head.(g.occ.(k)) lsr 1)
      done
    end
  in
  List.iter mark d.Delta.seeds;
  atoms
