(* Differential test of the component order: [Ordered.Poset] (sorted
   ancestor cones built by a memoised walk) against the dense Warshall
   closure kept in [Oracle.Poset], on random pair lists that include
   cycles, self-pairs and out-of-range ids.  Both must agree on the
   [Ok]/[Error] outcome and message, on every relation and listing, and
   on the per-view ranks the flat compiler reads (against the rank
   fixpoint it used to run over the whole order). *)

open Helpers
module Gen = QCheck2.Gen
module P = Ordered.Poset
module O = Oracle.Poset

let iters base =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > base -> n
    | _ -> base)
  | None -> base

(* Half the lists are acyclic by construction (every pair points to a
   larger id) so the relations get exercised; the other half draw any
   pair, which yields cycles and self-pairs; one pair in twenty is out
   of range. *)
let gen_order =
  let open Gen in
  let* n = int_range 0 8 in
  let* acyclic = bool in
  let id = int_range 0 (max 0 (n - 1)) in
  let pair =
    let* oob = int_bound 19 in
    if oob = 0 || n = 0 then pair (int_range (-1) (n + 1)) (int_range (-1) (n + 1))
    else
      let* a = id and* b = id in
      return (if acyclic then (min a b, max a b) else (a, b))
  in
  let* pairs = list_size (int_range 0 14) pair in
  let pairs =
    if acyclic then List.filter (fun (a, b) -> a <> b || a < 0 || a >= n) pairs
    else pairs
  in
  return (n, pairs)

let print_order (n, pairs) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) pairs))

let agree n p o =
  let ids = List.init n Fun.id in
  List.for_all
    (fun a ->
      P.above p a = O.above o a
      && P.below p a = O.below o a
      && P.ranks_above p a = O.ranks_above o a
      && List.for_all
           (fun b ->
             P.lt p a b = O.lt o a b
             && P.leq p a b = O.leq o a b
             && P.incomparable p a b = O.incomparable o a b)
           ids)
    ids
  && P.minimal p = O.minimal o
  && P.maximal p = O.maximal o
  && P.size p = n

let prop_poset_equals_closure =
  qcheck ~count:(iters 2000) ~print:print_order
    "poset = Warshall closure on random pair lists" gen_order
    (fun (n, pairs) ->
      match (P.make ~n ~pairs, O.make ~n ~pairs) with
      | Ok p, Ok o -> agree n p o
      | Error e, Error e' -> String.equal e e'
      | _ -> false)

let suite = [ prop_poset_equals_closure ]
