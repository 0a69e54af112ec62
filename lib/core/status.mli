(** Rule statuses with respect to an interpretation (paper, Definition 2).

    Given an interpretation [I] for [P] in [C] and a rule
    [r in ground(C-star)]:

    - [r] is {e applicable} if [B(r) <= I];
    - {e applied} if applicable and [H(r) in I];
    - {e blocked} if some [A in B(r)] has [-A in I];
    - {e overruled} if some non-blocked rule [r'] with [H(r') = -H(r)] has
      [C(r') < C(r)];
    - {e defeated} if some non-blocked rule [r'] with [H(r') = -H(r)] has
      [C(r') <> C(r)] or [C(r') = C(r)]. *)

val lit_value : Gop.Values.t -> int -> Logic.Interp.value
(** Truth value of a literal code ({!Gop.code}) under an encoded
    assignment. *)

val applicable : Gop.t -> Gop.Values.t -> int -> bool
val applied : Gop.t -> Gop.Values.t -> int -> bool
val blocked : Gop.t -> Gop.Values.t -> int -> bool
val overruled : Gop.t -> Gop.Values.t -> int -> bool
val defeated : Gop.t -> Gop.Values.t -> int -> bool

type report = {
  rule : Logic.Rule.t;
  component : string;
  applicable : bool;
  applied : bool;
  blocked : bool;
  overruled : bool;
  defeated : bool;
}

val report : Gop.t -> Gop.Values.t -> int -> report
val report_all : Gop.t -> Logic.Interp.t -> report list
(** Reports for every ground rule w.r.t. a symbolic interpretation. *)

val pp_report : Format.formatter -> report -> unit
