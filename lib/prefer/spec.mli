(** A rule-preference specification: an ordered program, a viewpoint, and
    a strict partial order on its {e named} rules.

    [prefer a > b] declares rule [a] preferred over rule [b]: where their
    ground instances contradict, [a]'s instance overrules [b]'s, exactly
    as a rule of a more specific component overrules an inherited one
    (paper, Definition 2).  The preference order {e refines} the object
    order — both kinds of edge combine into one strict order on rules,
    and {!make} rejects any combination that would relate a rule to
    itself ({!Ordered.Diag.Preference_cycle}). *)

type t = private {
  program : Ordered.Program.t;
  viewpoint : Ordered.Program.component_id;
  prefs : (string * string) list;  (** [(preferred, over)] name pairs *)
}

val make :
  Ordered.Program.t ->
  Ordered.Program.component_id ->
  (string * string) list ->
  t
(** Validate and pack.  Raises {!Ordered.Diag.Error}:
    [Invalid_input] when a preference names a rule that does not exist in
    the viewpoint or a name is ambiguous there, [Preference_cycle] when
    the combined rule order (component order plus preferences) has a
    cycle. *)

val check_pairs : (string * string) list -> unit
(** Structural check on the pairs alone (no program needed): rejects
    self-preferences and cycles among the declared pairs with
    {!Ordered.Diag.Preference_cycle}.  Used by the KB mutation path,
    which accepts preferences before the named rules exist. *)
