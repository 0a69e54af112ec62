(** Interned ground normal programs.

    A {e normal} (the paper's {e seminegative}) program has positive rule
    heads; a negative body literal [-A] is read here as negation-as-failure
    on [A].  Atoms are interned to dense integers so the fixpoint engines
    run on arrays. *)

type rule = {
  head : int;
  pos : int array;  (** positive body atoms *)
  neg : int array;  (** NAF-negated body atoms *)
}

type t = {
  atoms : Logic.Atom.t array;  (** id -> atom *)
  ids : int Logic.Atom.Tbl.t;  (** atom -> id *)
  rules : rule array;
  by_pos : int list array;  (** atom id -> indices of rules with it in [pos] *)
  by_neg : int list array;  (** atom id -> indices of rules with it in [neg] *)
  by_head : int list array;  (** atom id -> indices of rules with it as head *)
}

val of_rules : ?budget:Governor.Budget.t -> Logic.Rule.t list -> t
(** Intern a ground seminegative program, one [budget] tick per rule.
    Raises [Invalid_argument] on a negative head or a non-ground rule,
    and [Governor.Budget.Exhausted] when the budget runs out. *)

val n_atoms : t -> int

val atom_id : t -> Logic.Atom.t -> int option
(** Look up an atom's id ([None] if the atom does not occur). *)

val set_of_ids : t -> int list -> Logic.Atom.Set.t
(** Decode a list of atom ids. *)

val ids_of_mask : bool array -> int list
(** Indices set in a boolean mask, ascending. *)

val decode_mask : t -> bool array -> Logic.Atom.Set.t
(** Atoms whose mask entry is [true]. *)
