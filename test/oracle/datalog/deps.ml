open Logic

type pred = string * int

module PredMap = Map.Make (struct
  type t = pred

  let compare = compare
end)

type t = {
  preds : pred array;
  index : int PredMap.t;
  (* edges.(head) = list of (body pred id, negative?) *)
  edges : (int * bool) list array;
}

let pred_of_atom (a : Atom.t) = (a.pred, Atom.arity a)

let of_rules rules =
  let preds = ref PredMap.empty in
  let count = ref 0 in
  let intern p =
    match PredMap.find_opt p !preds with
    | Some i -> i
    | None ->
      let i = !count in
      preds := PredMap.add p i !preds;
      incr count;
      i
  in
  (* Intern all predicates first (including body-only ones). *)
  List.iter
    (fun (r : Rule.t) ->
      let visit (l : Literal.t) =
        if not (Ground.Builtin.is_builtin_literal l) then
          ignore (intern (pred_of_atom l.atom))
      in
      visit (Rule.head r);
      List.iter visit (Rule.body r))
    rules;
  let edges = Array.make !count [] in
  List.iter
    (fun (r : Rule.t) ->
      let h = Rule.head r in
      if not (Ground.Builtin.is_builtin_literal h) then begin
        let hid = intern (pred_of_atom h.Literal.atom) in
        List.iter
          (fun (l : Literal.t) ->
            if not (Ground.Builtin.is_builtin_literal l) then
              let bid = intern (pred_of_atom l.atom) in
              let negative = Literal.is_negative l in
              edges.(hid) <- (bid, negative) :: edges.(hid))
          (Rule.body r)
      end)
    rules;
  let arr = Array.make !count ("", 0) in
  PredMap.iter (fun p i -> arr.(i) <- p) !preds;
  { preds = arr; index = !preds; edges }

let predicates g = Array.to_list g.preds

let depends_on g p =
  match PredMap.find_opt p g.index with
  | None -> []
  | Some i ->
    (* Merge duplicate edges, a negative occurrence dominating. *)
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (b, neg) ->
        let prev = Option.value ~default:false (Hashtbl.find_opt tbl b) in
        Hashtbl.replace tbl b (prev || neg))
      g.edges.(i);
    Hashtbl.fold (fun b neg acc -> (g.preds.(b), neg) :: acc) tbl []
    |> List.sort compare

(* Tarjan's strongly-connected-components algorithm. *)
let sccs_ids g =
  let n = Array.length g.preds in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (w, _) ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      g.edges.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  (* Tarjan completes sink components (pure dependencies) first; returning
     them in completion order puts every component after the components it
     depends on. *)
  List.rev !out

let sccs g = List.map (List.map (fun i -> g.preds.(i))) (sccs_ids g)

let stratification g =
  let comps = sccs_ids g in
  let n = Array.length g.preds in
  let comp_of = Array.make n (-1) in
  List.iteri (fun ci comp -> List.iter (fun v -> comp_of.(v) <- ci) comp) comps;
  (* Reject a negative edge inside a component. *)
  let ok = ref true in
  Array.iteri
    (fun v es ->
      List.iter
        (fun (w, neg) -> if neg && comp_of.(v) = comp_of.(w) then ok := false)
        es)
    g.edges;
  if not !ok then None
  else begin
    (* Stratum of a component: computed over components in dependency
       order.  comps is ordered dependencies-first. *)
    let ncomp = List.length comps in
    let stratum = Array.make ncomp 0 in
    List.iteri
      (fun ci comp ->
        List.iter
          (fun v ->
            List.iter
              (fun (w, neg) ->
                let cw = comp_of.(w) in
                if cw <> ci then
                  stratum.(ci) <-
                    max stratum.(ci) (stratum.(cw) + if neg then 1 else 0)
                else if neg then assert false)
              g.edges.(v))
          comp)
      comps;
    Some
      (Array.to_list
         (Array.mapi (fun v p -> (p, stratum.(comp_of.(v)))) g.preds)
       |> List.sort compare)
  end

let is_stratified g = Option.is_some (stratification g)
