module Gop = Ordered.Gop

type t = { atoms : bool array; rules : bool array }

(* Closure invariants (see docs/INCREMENTAL.md for the soundness proof):
   - a marked rule marks its head atom (its derivations may change);
   - a marked atom marks every rule reading it in the body, and — because
     a body change can flip a suppressor's blocked status — every rule
     those rules suppress;
   - a seed atom (head of an added or removed ground rule) additionally
     marks every rule sharing that head atom: their suppressor sets
     changed structurally.
   Contrapositive: an unmarked atom has only unmarked head rules, whose
   bodies and suppressors evaluate identically in the old and new
   program, so its old fixpoint value is still exact. *)
let affected (g : Gop.t) (d : Delta.t) =
  let na = Gop.n_atoms g and nr = Gop.n_rules g in
  let atoms = Array.make (max 1 na) false in
  let rules = Array.make (max 1 nr) false in
  let rec mark_rule i =
    if not rules.(i) then begin
      rules.(i) <- true;
      mark_atom g.Gop.rules.(i).Gop.head
    end
  and mark_atom a =
    if not atoms.(a) then begin
      atoms.(a) <- true;
      let touch j =
        mark_rule j;
        List.iter mark_rule g.Gop.suppresses.(j)
      in
      List.iter touch g.Gop.by_body_pos.(a);
      List.iter touch g.Gop.by_body_neg.(a)
    end
  in
  List.iter
    (fun i ->
      mark_rule i;
      List.iter mark_rule g.Gop.suppresses.(i))
    d.Delta.added;
  List.iter
    (fun a ->
      mark_atom a;
      List.iter
        (fun j ->
          mark_rule j;
          List.iter mark_rule g.Gop.suppresses.(j))
        g.Gop.by_head.(a))
    d.Delta.seeds;
  { atoms; rules }
