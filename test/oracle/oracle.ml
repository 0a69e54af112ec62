open Logic
module B = Ordered.Budget
module C = Ordered.Counters
module G = Ordered.Gop

let is_maximal models m =
  not
    (List.exists
       (fun m' -> (not (Interp.equal m m')) && Interp.subset m m')
       models)

let maximal models = List.filter (is_maximal models) models

module Poset = struct
  type t = { n : int; lt : bool array array }

  (* The dense closure: Warshall over an n x n matrix. *)
  let make ~n ~pairs =
    let lt = Array.make_matrix n n false in
    let bad =
      List.find_opt (fun (a, b) -> a < 0 || a >= n || b < 0 || b >= n) pairs
    in
    match bad with
    | Some (a, b) ->
      Error (Printf.sprintf "order pair (%d, %d) out of range" a b)
    | None -> (
      List.iter (fun (a, b) -> lt.(a).(b) <- true) pairs;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          if lt.(i).(k) then
            for j = 0 to n - 1 do
              if lt.(k).(j) then lt.(i).(j) <- true
            done
        done
      done;
      let cyclic = ref None in
      for i = 0 to n - 1 do
        if lt.(i).(i) && !cyclic = None then cyclic := Some i
      done;
      match !cyclic with
      | Some i ->
        Error
          (Printf.sprintf "the component order has a cycle through id %d" i)
      | None -> Ok { n; lt })

  let ids t = List.init t.n Fun.id
  let lt t a b = t.lt.(a).(b)
  let leq t a b = a = b || t.lt.(a).(b)
  let incomparable t a b = a <> b && (not t.lt.(a).(b)) && not t.lt.(b).(a)
  let above t a = List.filter (fun b -> leq t a b) (ids t)
  let below t a = List.filter (fun b -> leq t b a) (ids t)

  let minimal t =
    List.filter (fun a -> not (List.exists (fun b -> t.lt.(b).(a)) (ids t))) (ids t)

  let maximal t =
    List.filter (fun a -> not (List.exists (fun b -> t.lt.(a).(b)) (ids t))) (ids t)

  (* The rank fixpoint the flat compiler used to run over the whole
     order, restricted to the view of [v]: ranks only grow, and the order
     is acyclic, so the loop terminates. *)
  let ranks_above t v =
    let rank = Array.make t.n 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for a = 0 to t.n - 1 do
        for b = 0 to t.n - 1 do
          if leq t v a && lt t a b && rank.(b) < rank.(a) + 1 then begin
            rank.(b) <- rank.(a) + 1;
            changed := true
          end
        done
      done
    done;
    List.map (fun b -> (b, rank.(b))) (above t v)
end

module Stable = struct
  (* Atoms that occur as rule heads, with the polarities they occur
     with, minus those the least fixpoint already decides: an
     assumption-free model consists solely of head literals. *)
  let branch_space (g : G.t) seed =
    let n = G.n_atoms g in
    let pos_head = Array.make n false in
    let neg_head = Array.make n false in
    Array.iter
      (fun (r : G.grule) ->
        if r.head_pol then pos_head.(r.head) <- true
        else neg_head.(r.head) <- true)
      g.G.rules;
    List.filter_map
      (fun a ->
        if G.Values.defined seed a then None
        else
          match (pos_head.(a), neg_head.(a)) with
          | false, false -> None
          | p, n -> Some (a, p, n))
      (List.init n Fun.id)

  (* Assign every undecided head atom and check
     [Model.is_assumption_free] only at complete leaves: the full 3^n
     assignment tree. *)
  let assumption_free_models ?limit ?(budget = B.unlimited) ?stats (g : G.t)
      =
    let stats = match stats with Some s -> s | None -> C.create () in
    let acc = ref [] in
    let count = ref 0 in
    try
      let seed = Ordered.Vfix.lfp ~budget g in
      let branch = Array.of_list (branch_space g seed) in
      let full () =
        match limit with
        | Some l -> !count >= l
        | None -> false
      in
      let v = G.Values.copy seed in
      let check () =
        stats.C.leaves <- stats.C.leaves + 1;
        let interp = G.Values.to_interp g v in
        if Ordered.Model.is_assumption_free g interp then begin
          incr count;
          stats.C.models <- stats.C.models + 1;
          acc := interp :: !acc
        end
      in
      let rec go i =
        B.tick budget;
        stats.C.nodes <- stats.C.nodes + 1;
        if not (full ()) then
          if i >= Array.length branch then check ()
          else begin
            let a, can_pos, can_neg = branch.(i) in
            go (i + 1);
            if can_pos then begin
              G.Values.set v a true;
              go (i + 1);
              G.Values.unset v a
            end;
            if can_neg then begin
              G.Values.set v a false;
              go (i + 1);
              G.Values.unset v a
            end
          end
      in
      go 0;
      B.Complete (List.rev !acc)
    with B.Exhausted r -> B.Partial (List.rev !acc, r)

  (* Definition 9 read off the complete enumeration; a truncated one
     certifies nothing. *)
  let stable_models ?limit ?budget ?stats g =
    match assumption_free_models ?budget ?stats g with
    | B.Complete ms ->
      let stable = maximal ms in
      B.Complete
        (match limit with
        | Some l -> List.filteri (fun i _ -> i < l) stable
        | None -> stable)
    | B.Partial (_, r) -> B.Partial ([], r)
end

module Exhaustive = struct
  let total_models ?limit ?(budget = B.unlimited) ?stats (g : G.t) =
    let stats = match stats with Some s -> s | None -> C.create () in
    let atoms = Array.of_list (G.active_base g) in
    let acc = ref [] in
    let count = ref 0 in
    let full () =
      match limit with
      | Some l -> !count >= l
      | None -> false
    in
    let rec go i m =
      B.tick budget;
      stats.C.nodes <- stats.C.nodes + 1;
      if not (full ()) then
        if i >= Array.length atoms then begin
          stats.C.leaves <- stats.C.leaves + 1;
          if Ordered.Model.is_model g m then begin
            incr count;
            stats.C.models <- stats.C.models + 1;
            acc := m :: !acc
          end
        end
        else begin
          go (i + 1) (Interp.set m atoms.(i) true);
          go (i + 1) (Interp.set m atoms.(i) false)
        end
    in
    match go 0 Interp.empty with
    | () -> B.Complete (List.rev !acc)
    | exception B.Exhausted r -> B.Partial (List.rev !acc, r)
end

module Pruned = struct
  module V = Ordered.Vfix

  (* Same fail-first ordering as the stable search: most-mentioned atoms
     first, ties on the atom id, so the enumeration is deterministic. *)
  let order_atoms (g : G.t) atoms =
    let occ = Array.make (G.n_atoms g) 0 in
    Array.iter
      (fun (r : G.grule) ->
        occ.(r.head) <- occ.(r.head) + 1;
        Array.iter (fun (a, _) -> occ.(a) <- occ.(a) + 1) r.body)
      g.G.rules;
    List.sort (fun a b -> compare (- occ.(a), a) (- occ.(b), b)) atoms

  let total_models ?limit ?(budget = B.unlimited) ?stats (g : G.t) =
    (* Branch-and-propagate, like {!Ordered.Stable.assumption_free_models}:
       a total model is in particular a model, hence closed under [V] and
       a superset of lfp(V), so the search seeds the assignment with the
       least fixpoint, re-propagates after every decision, and prunes on
       conflict.  No support pruning here — a total model may contain
       unsupported literals (only condition (a) constrains them).
       Anytime: a partial result is a prefix of the unbudgeted
       enumeration. *)
    let stats = match stats with Some s -> s | None -> C.create () in
    let acc = ref [] in
    let count = ref 0 in
    try
      let seed = V.lfp ~budget g in
      let branch =
        Array.of_list
          (order_atoms g
             (List.filter
                (fun a -> not (G.Values.defined seed a))
                (List.init (G.n_atoms g) Fun.id)))
      in
      let dec = G.Values.copy seed in
      let full () =
        match limit with
        | Some l -> !count >= l
        | None -> false
      in
      let rec node i =
        B.tick budget;
        stats.C.nodes <- stats.C.nodes + 1;
        if not (full ()) then
          match V.propagate ~budget g dec with
          | Error _ -> stats.C.prunes <- stats.C.prunes + 1
          | Ok v -> (
            let rec next j =
              if j >= Array.length branch then None
              else if G.Values.defined v branch.(j) then begin
                if not (G.Values.defined dec branch.(j)) then
                  stats.C.forced <- stats.C.forced + 1;
                next (j + 1)
              end
              else Some j
            in
            match next i with
            | None ->
              stats.C.leaves <- stats.C.leaves + 1;
              if Ordered.Model.is_model_v g v then begin
                incr count;
                stats.C.models <- stats.C.models + 1;
                acc := G.Values.to_interp g v :: !acc
              end
            | Some j ->
              let a = branch.(j) in
              G.Values.set dec a true;
              node (j + 1);
              G.Values.unset dec a;
              G.Values.set dec a false;
              node (j + 1);
              G.Values.unset dec a)
      in
      node 0;
      B.Complete (List.rev !acc)
    with B.Exhausted r -> B.Partial (List.rev !acc, r)
end

module Prefer = struct
  module Spec = Prefer.Spec

  (* Instead of compiling the preference order into fresh components and
     re-grounding, refine the edge arrays of the original grounding.
     Ground rules are grouped into classes — one per (component, rule
     name) — and the combined rule order is the transitive closure of

       class(i) < class(j)   if  C(i) < C(j) in the object order,
                             or  (name i, name j) is a prefer pair;

     then Definition 2 is re-read with classes in place of components:
     [j] overrules [i] when class(j) < class(i), and [j] defeats [i]
     when the classes are unrelated (including equal). *)
  type cls = { comp : Ordered.Program.component_id; name : string option }

  let refined_gop (spec : Spec.t) =
    let g = G.ground spec.Spec.program spec.Spec.viewpoint in
    let nr = Array.length g.G.rules in
    let poset = Ordered.Program.poset spec.Spec.program in
    let classes = ref [] in
    let nclass = ref 0 in
    let class_of = Array.make nr 0 in
    Array.iteri
      (fun i (r : G.grule) ->
        let c = { comp = r.G.comp; name = r.G.name } in
        match List.assoc_opt c !classes with
        | Some id -> class_of.(i) <- id
        | None ->
          classes := (c, !nclass) :: !classes;
          class_of.(i) <- !nclass;
          incr nclass)
      g.G.rules;
    let nc = !nclass in
    let cls = Array.make nc { comp = 0; name = None } in
    List.iter (fun (c, id) -> cls.(id) <- c) !classes;
    (* base edges, then a pairwise-propagation closure (iterated until it
       stops growing — deliberately not the matrix closure Poset uses) *)
    let lt = Array.make_matrix nc nc false in
    for u = 0 to nc - 1 do
      for v = 0 to nc - 1 do
        if u <> v then begin
          if Ordered.Poset.lt poset cls.(u).comp cls.(v).comp then
            lt.(u).(v) <- true;
          match (cls.(u).name, cls.(v).name) with
          | Some a, Some b when List.mem (a, b) spec.Spec.prefs ->
            lt.(u).(v) <- true
          | _ -> ()
        end
      done
    done;
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to nc - 1 do
        for v = 0 to nc - 1 do
          if lt.(u).(v) then
            for w = 0 to nc - 1 do
              if lt.(v).(w) && not lt.(u).(w) then begin
                lt.(u).(w) <- true;
                changed := true
              end
            done
        done
      done
    done;
    (* rebuild the Definition 2 adjacency under the refined order *)
    let overrulers = Array.make nr [] in
    let defeaters = Array.make nr [] in
    let suppresses = Array.make nr [] in
    for a = 0 to Array.length g.G.atoms - 1 do
      let here = g.G.by_head.(a) in
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              let ri = g.G.rules.(i) and rj = g.G.rules.(j) in
              if ri.G.head_pol <> rj.G.head_pol then begin
                let ci = class_of.(i) and cj = class_of.(j) in
                if lt.(cj).(ci) then begin
                  overrulers.(i) <- j :: overrulers.(i);
                  suppresses.(j) <- i :: suppresses.(j)
                end
                else if not lt.(ci).(cj) then begin
                  defeaters.(i) <- j :: defeaters.(i);
                  suppresses.(j) <- i :: suppresses.(j)
                end
              end)
            here)
        here
    done;
    { g with G.overrulers; defeaters; suppresses }

  let preferred_models ?limit ?budget ?stats spec =
    Stable.stable_models ?limit ?budget ?stats (refined_gop spec)
end

(* The Format printers the logic library used before it printed into a
   Buffer, copied verbatim: the byte-for-byte reference of the
   diff-print suite. *)
module Print = struct
  open Logic

  module Term = struct
    open Term

    let level_of = function
      | "+" | "-" -> 1
      | "*" | "/" | "mod" -> 2
      | _ -> 3

    let rec pp_prec level ppf = function
      | Var v -> Format.pp_print_string ppf v
      | Int n ->
        if n < 0 && level > 0 then Format.fprintf ppf "(%d)" n
        else Format.pp_print_int ppf n
      | Sym s -> Format.pp_print_string ppf s
      | App (("+" | "-" | "*" | "/" | "mod") as op, [ l; r ]) ->
        let my = level_of op in
        if my < level then
          Format.fprintf ppf "(%a %s %a)" (pp_prec my) l op (pp_prec (my + 1)) r
        else Format.fprintf ppf "%a %s %a" (pp_prec my) l op (pp_prec (my + 1)) r
      | App ("-", [ t ]) -> Format.fprintf ppf "-%a" (pp_prec 3) t
      | App (f, args) ->
        Format.fprintf ppf "%s(%a)" f
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             (pp_prec 0))
          args

    let pp ppf t = pp_prec 0 ppf t

    let to_string t = Format.asprintf "%a" pp t
  end

  module Atom = struct
    open Atom

    let infix_preds = [ "<"; ">"; "<="; ">="; "="; "!=" ]

    let pp ppf a =
      match a.pred, a.args with
      | _, [] -> Format.pp_print_string ppf a.pred
      | p, [ l; r ] when List.mem p infix_preds ->
        Format.fprintf ppf "%a %s %a" Term.pp l p Term.pp r
      | p, args ->
        Format.fprintf ppf "%s(%a)" p
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             Term.pp)
          args

    let to_string a = Format.asprintf "%a" pp a
  end

  module Literal = struct
    open Literal

    let pp ppf l =
      if l.pol then Atom.pp ppf l.atom else Format.fprintf ppf "-%a" Atom.pp l.atom

    let to_string l = Format.asprintf "%a" pp l
  end

  module Rule = struct
    open Rule

    let pp ppf r =
      (match r.name with
      | Some n -> Format.fprintf ppf "%s : " n
      | None -> ());
      match r.body with
      | [] -> Format.fprintf ppf "%a." Literal.pp r.head
      | body ->
        Format.fprintf ppf "%a :- %a." Literal.pp r.head
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             Literal.pp)
          body

    let to_string r = Format.asprintf "%a" pp r
  end

  module Interp = struct
    open Interp

    let pp ppf i =
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Literal.pp)
        (to_literals i)

    let to_string i = Format.asprintf "%a" pp i
  end
end

module Ground = struct
  module Instance_tbl = Hashtbl.Make (struct
    type t = Ordered.Program.component_id * Rule.t

    let equal (c, r) (c', r') = c = c' && Rule.equal r r'

    let hash (c, (r : Rule.t)) =
      List.fold_left
        (fun h l -> (h * 31) + Literal.hash l)
        ((c * 31) + Literal.hash r.head)
        r.body
  end)

  let groups ?(budget = B.unlimited) ?max_instances ?(depth = 0) program comp
      =
    let view = Ordered.Program.view program comp in
    let universe =
      Herbrand.universe ~depth (Herbrand.signature_of_rules (List.map snd view))
    in
    let count = ref 0 in
    let guard (r : Rule.t) insts =
      (match max_instances with
      | None -> ()
      | Some cap ->
        count := !count + List.length insts;
        if !count > cap then
          Ordered.Diag.fail
            (Ordered.Diag.Grounding_overflow
               { rule = Rule.to_string r;
                 produced = !count;
                 cap;
                 universe = List.length universe
               }));
      insts
    in
    let raw =
      List.map
        (fun (c, r) ->
          (c, r, guard r (Datalog.Grounder.instances ~budget ~universe r)))
        view
    in
    let seen = Instance_tbl.create 256 in
    List.map
      (fun (c, src, insts) ->
        ( c,
          src,
          List.filter
            (fun r ->
              if Instance_tbl.mem seen (c, r) then false
              else begin
                Instance_tbl.add seen (c, r) ();
                true
              end)
            insts ))
      raw

  let flatten groups =
    List.concat_map
      (fun (c, _, insts) -> List.map (fun inst -> (c, inst)) insts)
      groups

  (* Definition 2 over every pair of rules with one head atom, in
     [by_head] order. *)
  let rows (g : G.t) =
    let nr = Array.length g.G.rules in
    let overrulers = Array.make nr [] in
    let defeaters = Array.make nr [] in
    let suppresses = Array.make nr [] in
    let poset = Ordered.Program.poset g.G.program in
    Array.iter
      (fun here ->
        List.iter
          (fun i ->
            List.iter
              (fun j ->
                let ci = g.G.rules.(i).G.comp and cj = g.G.rules.(j).G.comp in
                if g.G.rules.(i).G.head_pol <> g.G.rules.(j).G.head_pol then
                  if Ordered.Poset.lt poset cj ci then begin
                    overrulers.(i) <- j :: overrulers.(i);
                    suppresses.(j) <- i :: suppresses.(j)
                  end
                  else if ci = cj || Ordered.Poset.incomparable poset ci cj
                  then begin
                    defeaters.(i) <- j :: defeaters.(i);
                    suppresses.(j) <- i :: suppresses.(j)
                  end)
              here)
          here)
      g.G.by_head;
    { g with G.overrulers; defeaters; suppresses }

  let gop ?budget ?max_instances ?depth program comp =
    rows
      (G.of_view program comp
         (flatten (groups ?budget ?max_instances ?depth program comp)))

  let naive ?(budget = B.unlimited) ?(depth = 0) rules =
    let universe =
      Herbrand.universe ~depth (Herbrand.signature_of_rules rules)
    in
    List.concat_map (Datalog.Grounder.instances ~budget ~universe) rules
    |> Rule.Set.of_list |> Rule.Set.elements
end

module Vfix = struct
  let lfp_naive ?(budget = B.unlimited) (g : G.t) =
    let rec go v =
      B.check budget;
      let v' = Ordered.Vfix.step g v in
      if G.Values.equal v v' then v else go v'
    in
    go (G.Values.create g)
end
