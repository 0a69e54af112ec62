(* Each component keeps its strict ancestors (every [b] with [a < b])
   as a sorted int array.  The ancestor arrays are built by a memoised
   depth-first walk over the declared pairs, so [make] costs
   O(n + pairs + sum of cone sizes) instead of the O(n^2) space and up
   to O(n^3) time of a closed n x n matrix; [lt] is a binary search in
   one cone. *)
type t = {
  n : int;
  anc : int array array;  (* strict ancestors, sorted *)
  has_below : bool array;  (* some declared pair has this id on top *)
}

let sort_uniq a =
  let n = Array.length a in
  if n <= 1 then a
  else begin
    Array.sort compare a;
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub a 0 !k
  end

(* a binary search with no local closure, so [lt] allocates nothing *)
let rec mem_in sorted x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let y = sorted.(mid) in
  y = x || if y < x then mem_in sorted x (mid + 1) hi else mem_in sorted x lo mid

let mem sorted x = mem_in sorted x 0 (Array.length sorted)

(* [sorted] with [x] added in place ([x] is not in it). *)
let insert x sorted =
  let n = Array.length sorted in
  let out = Array.make (n + 1) x in
  let k = ref 0 in
  while !k < n && sorted.(!k) < x do
    out.(!k) <- sorted.(!k);
    incr k
  done;
  Array.blit sorted !k out (!k + 1) (n - !k);
  out

(* The smallest id that reaches itself through the declared pairs — the
   id the closure would report first.  Only runs on the error path. *)
let first_on_cycle n up =
  let reaches_itself i =
    let seen = Array.make n false in
    let rec go = function
      | [] -> false
      | x :: rest ->
        x = i
        || (if seen.(x) then go rest
           else begin
             seen.(x) <- true;
             go (Array.fold_left (fun acc p -> p :: acc) rest up.(x))
           end)
    in
    go (Array.to_list up.(i))
  in
  let rec find i = if reaches_itself i then i else find (i + 1) in
  find 0

(* A component's strict ancestors: its declared parents and theirs. *)
let cone anc up =
  match up with
  | [||] -> [||]
  | [| p |] -> insert p anc.(p)
  | ps -> sort_uniq (Array.concat (ps :: List.map (fun p -> anc.(p)) (Array.to_list ps)))

exception Cycle

let make ~n ~pairs =
  let bad =
    List.find_opt (fun (a, b) -> a < 0 || a >= n || b < 0 || b >= n) pairs
  in
  match bad with
  | Some (a, b) -> Error (Printf.sprintf "order pair (%d, %d) out of range" a b)
  | None -> (
    let ups = Array.make n [] in
    let has_below = Array.make n false in
    List.iter
      (fun (a, b) ->
        ups.(a) <- b :: ups.(a);
        has_below.(b) <- true)
      pairs;
    let up = Array.map (fun l -> sort_uniq (Array.of_list l)) ups in
    let anc = Array.make n [||] in
    let state = Array.make n 0 (* 0 unvisited, 1 on the stack, 2 done *) in
    let rec visit a =
      match state.(a) with
      | 2 -> ()
      | 1 -> raise Cycle
      | _ ->
        state.(a) <- 1;
        Array.iter visit up.(a);
        anc.(a) <- cone anc up.(a);
        state.(a) <- 2
    in
    match
      for a = 0 to n - 1 do
        visit a
      done
    with
    | () -> Ok { n; anc; has_below }
    | exception Cycle ->
      Error
        (Printf.sprintf "the component order has a cycle through id %d"
           (first_on_cycle n up)))

let extend t ~parents =
  if List.exists (fun p -> p < 0 || p >= t.n) parents then
    invalid_arg "Poset.extend: parent out of range";
  let up = sort_uniq (Array.of_list parents) in
  let has_below = Array.append t.has_below [| false |] in
  Array.iter (fun p -> has_below.(p) <- true) up;
  { n = t.n + 1;
    anc = Array.append t.anc [| cone t.anc up |];
    has_below
  }

let lt t a b = mem t.anc.(a) b
let leq t a b = a = b || lt t a b
let incomparable t a b = a <> b && (not (lt t a b)) && not (lt t b a)

let above t a = List.merge compare [ a ] (Array.to_list t.anc.(a))

let minimal t = List.filter (fun a -> not t.has_below.(a)) (List.init t.n Fun.id)
