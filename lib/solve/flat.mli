(** Flat compiled form of a ground ordered program.

    {!compile} runs once per solve call and packs everything the kernel
    touches into dense integer arrays: heads and bodies as parallel int
    slabs, body-literal occurrences / head indices / suppression edges as
    CSR (offset + payload) arrays.  The kernel ({!Kernel}) then never
    chases a list spine or allocates during propagation.  The component
    order is not kept: the suppression edges already say who beats whom,
    and a rule's suppressor row lists its overrulers, then its
    defeaters, as the ground program holds them (the kernel reads a row
    as a set).  The branch order is the search's, not the program's
    ({!Ordered.Parts.fail_first}). *)

type t = {
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
}

val code : int -> bool -> int
(** [code a pol]: the literal code indexing [occ_off] — [2a] for the
    positive literal over atom [a], [2a+1] for the negative one.  An
    assignment [a := pol] makes [code a pol] true and [code a (not pol)]
    false. *)

val compile : Ordered.Gop.t -> t
(** One pass over the ground program; no assignment, no budget. *)

