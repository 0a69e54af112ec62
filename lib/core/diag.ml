(* Re-export so the public API surface is [Ordered.Diag]; the
   implementation lives below the [ground] layer, which also consumes
   it. *)
include Governor.Diag
