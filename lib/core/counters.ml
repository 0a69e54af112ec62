(* Re-export so the public API surface is [Ordered.Counters]; the
   implementation lives below the [ground] layer, which also consumes
   it. *)
include Governor.Counters
