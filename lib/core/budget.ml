(* Re-export so the public API surface is [Ordered.Budget]; the
   implementation lives below the [ground] layer, which also consumes
   it. *)
include Governor.Budget
