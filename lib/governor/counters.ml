type t = {
  mutable nodes : int;
  mutable leaves : int;
  mutable prunes : int;
  mutable forced : int;
  mutable models : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable learned : int;
  mutable evicted : int;
  mutable restarts : int;
}

let create () =
  { nodes = 0;
    leaves = 0;
    prunes = 0;
    forced = 0;
    models = 0;
    propagations = 0;
    conflicts = 0;
    learned = 0;
    evicted = 0;
    restarts = 0
  }

let has_solver c =
  c.propagations <> 0 || c.conflicts <> 0 || c.learned <> 0 || c.evicted <> 0
  || c.restarts <> 0

let pp ppf c =
  Format.fprintf ppf
    "%d nodes, %d leaves, %d pruned subtrees, %d forced branches, %d models"
    c.nodes c.leaves c.prunes c.forced c.models;
  (* the solver counters exist only for the compiled kernel; the printed
     line for the pruned/naive engines is a cram-pinned contract, so they
     are appended only when one of them moved *)
  if has_solver c then
    Format.fprintf ppf
      "; solver: %d propagations, %d conflicts, %d learned nogoods (%d \
       evicted), %d restarts"
      c.propagations c.conflicts c.learned c.evicted c.restarts
