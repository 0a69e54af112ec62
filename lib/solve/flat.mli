(** Flat compiled form of a ground ordered program.

    {!compile} runs once per solve call and packs everything the kernel
    touches into dense integer arrays: heads and bodies as parallel int
    slabs, body-literal occurrences / head indices / suppression edges as
    CSR (offset + payload) arrays, the component order as a precomputed
    per-rule rank vector, and the fail-first occurrence scores of the
    branching heuristic.  The kernel ({!Kernel}) then never chases a list
    spine or allocates during propagation. *)

type t = {
  gop : Ordered.Gop.t;
  n_atoms : int;
  n_rules : int;
  head : int array;
  head_pol : bool array;
  body_len : int array;
  body_off : int array;
  body_atom : int array;
  body_pol : bool array;
  occ_off : int array;
  occ_rule : int array;
  by_head_off : int array;
  by_head_rule : int array;
  n_sup : int array;
  sup_of_off : int array;
  sup_of_rule : int array;
  suppresses_off : int array;
  suppresses_rule : int array;
  rank : int array;
  occ_score : int array;
}

val code : int -> bool -> int
(** [code a pol]: the literal code indexing [occ_off] — [2a] for the
    positive literal over atom [a], [2a+1] for the negative one.  An
    assignment [a := pol] makes [code a pol] true and [code a (not pol)]
    false. *)

val compile : Ordered.Gop.t -> t
(** One pass over the ground program; no assignment, no budget. *)

