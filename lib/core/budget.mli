(** Resource budgets (deadline, steps, fault injection) — see
    {!Governor.Budget} for the full documentation.  Re-exported here so
    users of the [Ordered] library need not depend on [Governor]
    directly. *)

include module type of struct
  include Governor.Budget
end
