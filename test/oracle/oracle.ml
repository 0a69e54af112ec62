open Logic
module B = Ordered.Budget
module C = Ordered.Counters
module G = Ordered.Gop

let maximal models =
  List.filter
    (fun m ->
      not
        (List.exists
           (fun m' -> (not (Interp.equal m m')) && Interp.subset m m')
           models))
    models

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

  let stable_models ?limit ?budget ?stats g =
    B.map maximal (assumption_free_models ?limit ?budget ?stats g)
end

module Exhaustive = struct
  let total_models ?limit ?(budget = B.unlimited) ?stats (g : G.t) =
    let stats = match stats with Some s -> s | None -> C.create () in
    let atoms = Array.of_list g.G.active_base in
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
