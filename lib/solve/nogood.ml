(* Bounded store of learned nogoods over search decisions.

   A nogood is a set of decisions — encoded [atom * 3 + dval] with dval 0
   for frozen-undefined, 1 for true, 2 for false — whose propagation
   closure conflicts.  Propagation is monotone in the decisions (Lemma 1),
   so a nogood learned on one branch is valid on every other branch: any
   decision prefix containing it propagates to the same conflict.  The
   kernel therefore consults the store before committing a decision and
   skips the subtree when the decision would complete a nogood.

   The membership test is incremental.  [in_force.(k)] counts how many
   elements of nogood [k] are on the current decision stack, maintained by
   [push]/[pop] through the occurrence table; a candidate decision [d]
   (necessarily not yet in force) completes nogood [k] iff [d] occurs in
   [k] and [in_force.(k) = size k - 1].

   The store is bounded: [maintain] (called by the kernel at restarts)
   evicts down to half the cap by activity — a bumped-on-hit, decayed
   score, VSIDS-style — always keeping nogoods of at most two decisions,
   which cost nothing and prune the most.  All tie-breaks are on store
   index, so eviction (and hence the whole search) is deterministic. *)

type t = {
  cap : int;
  mutable ngs : int array array;  (* sorted decision codes; slots >= n unused *)
  mutable act : float array;
  mutable in_force : int array;
  mutable n : int;
  occ : (int, int list) Hashtbl.t;  (* decision code -> store indices *)
  mutable bump : float;  (* current activity increment *)
}

let create ~cap =
  { cap = max 4 cap;
    ngs = Array.make 16 [||];
    act = Array.make 16 0.;
    in_force = Array.make 16 0;
    n = 0;
    occ = Hashtbl.create 64;
    bump = 1.
  }

let occ_list t code =
  match Hashtbl.find_opt t.occ code with Some l -> l | None -> []

let grow t =
  let cap' = 2 * Array.length t.ngs in
  let ngs = Array.make cap' [||] in
  Array.blit t.ngs 0 ngs 0 t.n;
  let act = Array.make cap' 0. in
  Array.blit t.act 0 act 0 t.n;
  let in_force = Array.make cap' 0 in
  Array.blit t.in_force 0 in_force 0 t.n;
  t.ngs <- ngs;
  t.act <- act;
  t.in_force <- in_force

(* Record a nogood whose decisions are all on the current stack (the
   kernel learns at the conflict, before backtracking, so every element is
   in force). *)
let add t ng =
  if t.n >= Array.length t.ngs then grow t;
  let k = t.n in
  t.ngs.(k) <- ng;
  t.act.(k) <- t.bump;
  t.in_force.(k) <- Array.length ng;
  t.n <- k + 1;
  Array.iter (fun code -> Hashtbl.replace t.occ code (k :: occ_list t code)) ng

let push t code =
  List.iter
    (fun k -> t.in_force.(k) <- t.in_force.(k) + 1)
    (occ_list t code)

let pop t code =
  List.iter
    (fun k -> t.in_force.(k) <- t.in_force.(k) - 1)
    (occ_list t code)

(* Would committing [code] complete a nogood?  The candidate is not in
   force, so a nogood containing it has every other element in force iff
   its count is one short of its size.  A hit bumps the nogood's
   activity. *)
let blocks t code =
  let rec go = function
    | [] -> false
    | k :: rest ->
      if t.in_force.(k) = Array.length t.ngs.(k) - 1 then begin
        t.act.(k) <- t.act.(k) +. t.bump;
        true
      end
      else go rest
  in
  go (occ_list t code)

(* Geometric decay: instead of scaling every score down per conflict, scale
   the increment up and renormalise when it overflows. *)
let decay t =
  t.bump <- t.bump *. 1.05;
  if t.bump > 1e20 then begin
    for k = 0 to t.n - 1 do
      t.act.(k) <- t.act.(k) /. t.bump
    done;
    t.bump <- 1.
  end

(* Evict down to half the cap, keeping every nogood of size <= 2 and then
   the highest-activity remainder.  [in_force] answers whether a decision
   code is on the current stack; the counters are recomputed from it for
   the survivors.  Returns the number evicted. *)
let maintain t ~in_force:still_forced =
  if t.n <= t.cap then 0
  else begin
    let idx = List.init t.n Fun.id in
    let short, long =
      List.partition (fun k -> Array.length t.ngs.(k) <= 2) idx
    in
    let long =
      List.sort
        (fun a b ->
          match compare t.act.(b) t.act.(a) with
          | 0 -> compare a b
          | c -> c)
        long
    in
    let target = max (t.cap / 2) (List.length short) in
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    let kept =
      List.sort compare (short @ take (target - List.length short) long)
    in
    let evicted = t.n - List.length kept in
    let ngs = Array.make (Array.length t.ngs) [||] in
    let act = Array.make (Array.length t.act) 0. in
    let in_force = Array.make (Array.length t.in_force) 0 in
    Hashtbl.reset t.occ;
    t.n <- 0;
    List.iter
      (fun old ->
        let k = t.n in
        ngs.(k) <- t.ngs.(old);
        act.(k) <- t.act.(old);
        in_force.(k) <-
          Array.fold_left
            (fun c code -> if still_forced code then c + 1 else c)
            0 t.ngs.(old);
        t.n <- k + 1)
      kept;
    t.ngs <- ngs;
    t.act <- act;
    t.in_force <- in_force;
    for k = t.n - 1 downto 0 do
      Array.iter
        (fun code -> Hashtbl.replace t.occ code (k :: occ_list t code))
        t.ngs.(k)
    done;
    evicted
  end
