(* Differential test of the component order: [Ordered.Poset] (sorted
   ancestor cones built by a memoised walk) against the dense Warshall
   closure kept in [Oracle.Poset], on random pair lists that include
   cycles, self-pairs and out-of-range ids.  Both must agree on the
   [Ok]/[Error] outcome and message, and on every relation and
   listing.  [Poset.extend] and
   [Program.extend], which a knowledge base's define uses to grow the
   order one object at a time, must build exactly what [make] builds
   from all the pairs at once. *)

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
      && List.for_all
           (fun b ->
             P.lt p a b = O.lt o a b
             && P.leq p a b = O.leq o a b
             && P.incomparable p a b = O.incomparable o a b)
           ids)
    ids
  && P.minimal p = O.minimal o

let prop_poset_equals_closure =
  qcheck ~count:(iters 2000) ~print:print_order
    "poset = Warshall closure on random pair lists" gen_order
    (fun (n, pairs) ->
      match (P.make ~n ~pairs, O.make ~n ~pairs) with
      | Ok p, Ok o -> agree n p o
      | Error e, Error e' -> String.equal e e'
      | _ -> false)

(* A define sequence: each new id gets zero to three parents among the
   ids before it (repeats allowed), so chains, several parents and
   diamonds all occur. *)
let gen_defines =
  let open Gen in
  let* k = int_range 1 10 in
  let rec go i acc =
    if i = k then return (List.rev acc)
    else
      let* parents =
        if i = 0 then return [] else list_size (int_range 0 3) (int_bound (i - 1))
      in
      go (i + 1) (parents :: acc)
  in
  go 0 []

let print_defines ds =
  String.concat "; "
    (List.mapi
       (fun i ps ->
         Printf.sprintf "%d<[%s]" i (String.concat "," (List.map string_of_int ps)))
       ds)

let name i = Printf.sprintf "c%d" i

(* Compared field by field: structural equality covers every row the
   poset keeps (ancestor cones, below-flags). *)
let prop_extend_equals_make =
  qcheck ~count:(iters 2000) ~print:print_defines
    "extend = make on random define sequences" gen_defines (fun ds ->
      let module Pr = Ordered.Program in
      let fact i = [ rule (Printf.sprintf "p%d." i) ] in
      let step (i, p, prog, pairs, ok) parents =
        let pairs = pairs @ List.map (fun b -> (i, b)) parents in
        let p = P.extend p ~parents in
        let prog =
          Result.get_ok
            (Pr.extend prog (name i) ~parents:(List.map name parents) (fact i))
        in
        let n = i + 1 in
        let made = Result.get_ok (P.make ~n ~pairs) in
        let made_prog =
          Pr.make_exn
            (List.init n (fun a -> (name a, fact a)))
            (List.map (fun (a, b) -> (name a, name b)) pairs)
        in
        let ids = List.init n Fun.id in
        let ok =
          ok && p = made
          && Pr.poset prog = Pr.poset made_prog
          && Array.length (Pr.component_names prog) = n
          && List.for_all
               (fun a ->
                 Pr.component_id prog (name a) = Some a
                 && List.equal Logic.Rule.equal (local_rules prog a)
                      (local_rules made_prog a))
               ids
          && Pr.component_id prog "missing" = None
          && Result.is_error (Pr.extend prog (name 0) ~parents:[] [])
          && Result.is_error (Pr.extend prog "fresh" ~parents:[ "missing" ] [])
        in
        (n, p, prog, pairs, ok)
      in
      let _, _, _, _, ok =
        List.fold_left step
          (0, Result.get_ok (P.make ~n:0 ~pairs:[]), Pr.make_exn [] [], [], true)
          ds
      in
      ok)

let suite = [ prop_poset_equals_closure; prop_extend_equals_make ]
