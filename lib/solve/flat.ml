(* One-shot compilation of a ground ordered program into flat
   integer-indexed arrays.  [Ordered.Gop.t] already interns atoms and
   rules as dense ints, but its adjacency lives in [int list array]s and
   its rule bodies in per-rule tuples; every propagation pass over those
   chases list spines and re-reads tuple fields.  The compiled form packs
   everything the kernel touches into CSR (offset + payload) int arrays:
   one cache-friendly slab per relation, no allocation during search.

   The compilation is per ground program, independent of any assignment
   or budget; the kernel compiles once per solve call and reuses the
   arrays across the whole search. *)

type t = {
  n_atoms : int;
  n_rules : int;
  head : int array;  (* rule -> head atom id *)
  head_pol : bool array;  (* rule -> head polarity *)
  body_len : int array;  (* rule -> number of (deduplicated) body literals *)
  body_off : int array;  (* rule -> offset into body_atom/body_pol *)
  body_atom : int array;
  body_pol : bool array;
  occ_off : int array;  (* literal code -> offset into occ_rule *)
  occ_rule : int array;  (* rules whose body contains the literal *)
  by_head_off : int array;  (* atom -> offset into by_head_rule *)
  by_head_rule : int array;
  n_sup : int array;  (* rule -> number of suppressors (over- + defeat-) *)
  sup_of_off : int array;  (* rule -> offset into sup_of_rule *)
  sup_of_rule : int array;  (* suppressors of the rule *)
  suppresses_off : int array;  (* rule -> offset into suppresses_rule *)
  suppresses_rule : int array;  (* rules this rule suppresses *)
}

(* Literal codes: [2a] is atom [a] positive, [2a+1] negative.  Assigning
   [a := pol] makes literal [code a pol] true and [code a (not pol)]
   false, so one CSR over codes serves both propagation directions. *)
let code a pol = (2 * a) + if pol then 0 else 1

(* Build a CSR relation over [rows] rows in two passes: [fill i add]
   calls [add row x] for the entries item [i] contributes, and the
   items run in ascending order both times, so each row lists its
   entries in the order they were added. *)
let csr ~rows ~n fill =
  let off = Array.make (rows + 1) 0 in
  let count row _ = off.(row + 1) <- off.(row + 1) + 1 in
  for i = 0 to n - 1 do
    fill i count
  done;
  for r = 0 to rows - 1 do
    off.(r + 1) <- off.(r + 1) + off.(r)
  done;
  let payload = Array.make off.(rows) 0 in
  let cursor = Array.sub off 0 rows in
  let place row x =
    payload.(cursor.(row)) <- x;
    cursor.(row) <- cursor.(row) + 1
  in
  for i = 0 to n - 1 do
    fill i place
  done;
  (off, payload)

(* The list loops of the [fill] functions below, without a closure per
   item: [add row x] for each [x] of a list, and [add r x] for each row
   [r] of a list. *)
let rec add_to_rows add row = function
  | [] -> ()
  | x :: rest ->
    add row x;
    add_to_rows add row rest

let rec add_to_each add rows x =
  match rows with
  | [] -> ()
  | r :: rest ->
    add r x;
    add_to_each add rest x

let compile (g : Ordered.Gop.t) =
  let n_atoms = Ordered.Gop.n_atoms g in
  let n_rules = Ordered.Gop.n_rules g in
  let head = Array.make (max 1 n_rules) 0 in
  let head_pol = Array.make (max 1 n_rules) false in
  let body_len = Array.make (max 1 n_rules) 0 in
  let body_off = Array.make (n_rules + 1) 0 in
  Array.iteri
    (fun i (r : Ordered.Gop.grule) ->
      head.(i) <- r.head;
      head_pol.(i) <- r.head_pol;
      body_len.(i) <- Array.length r.body;
      body_off.(i + 1) <- body_off.(i) + Array.length r.body)
    g.Ordered.Gop.rules;
  let nbody = body_off.(n_rules) in
  let body_atom = Array.make (max 1 nbody) 0 in
  let body_pol = Array.make (max 1 nbody) false in
  Array.iteri
    (fun i (r : Ordered.Gop.grule) ->
      Array.iteri
        (fun k (a, pol) ->
          body_atom.(body_off.(i) + k) <- a;
          body_pol.(body_off.(i) + k) <- pol)
        r.body)
    g.Ordered.Gop.rules;
  (* body-literal occurrences, by literal code, rules ascending *)
  let occ_off, occ_rule =
    csr ~rows:(2 * n_atoms) ~n:n_rules (fun i add ->
        for k = body_off.(i) to body_off.(i + 1) - 1 do
          add (code body_atom.(k) body_pol.(k)) i
        done)
  in
  let by_head_off, by_head_rule =
    csr ~rows:n_atoms ~n:n_rules (fun i add -> add head.(i) i)
  in
  (* rules each rule suppresses, ascending: the inverse of the
     overruler and defeater rows *)
  let suppresses_off, suppresses_rule =
    csr ~rows:n_rules ~n:n_rules (fun j add ->
        add_to_each add g.Ordered.Gop.overrulers.(j) j;
        add_to_each add g.Ordered.Gop.defeaters.(j) j)
  in
  (* suppressors of each rule: its overrulers, then its defeaters *)
  let sup_of_off, sup_of_rule =
    csr ~rows:n_rules ~n:n_rules (fun i add ->
        add_to_rows add i g.Ordered.Gop.overrulers.(i);
        add_to_rows add i g.Ordered.Gop.defeaters.(i))
  in
  let n_sup =
    Array.init (max 1 n_rules) (fun i ->
        if i < n_rules then sup_of_off.(i + 1) - sup_of_off.(i) else 0)
  in
  { n_atoms;
    n_rules;
    head;
    head_pol;
    body_len;
    body_off;
    body_atom;
    body_pol;
    occ_off;
    occ_rule;
    by_head_off;
    by_head_rule;
    n_sup;
    sup_of_off;
    sup_of_rule;
    suppresses_off;
    suppresses_rule
  }

