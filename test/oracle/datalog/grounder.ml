(* Relevance-driven grounding for the classical substrate (see the
   interface for why the ordered engines do not use it). *)

open Logic
module Budget = Governor.Budget

(* ------------------------------------------------------------------ *)
(* The substitution grounder: the reference the plans are checked by   *)
(* ------------------------------------------------------------------ *)

let normalise_atom (a : Atom.t) : Atom.t =
  { a with args = List.map Ground.Builtin.eval_term a.args }

let normalise_literal (l : Literal.t) : Literal.t =
  { l with atom = normalise_atom l.atom }

let finalize_instance (r : Rule.t) : Rule.t option =
  if not (Rule.is_ground r) then
    invalid_arg "Grounder.finalize_instance: rule is not ground";
  if Ground.Builtin.is_builtin_literal (Rule.head r) then
    invalid_arg "Grounder.finalize_instance: builtin predicate in rule head";
  let exception Dead in
  try
    let body =
      List.filter_map
        (fun l ->
          if Ground.Builtin.is_builtin_literal l then
            match Ground.Builtin.eval_literal l with
            | Some true -> None
            | Some false | None -> raise Dead
          else Some (normalise_literal l))
        (Rule.body r)
    in
    let inst = Rule.make (normalise_literal (Rule.head r)) body in
    Some
      (match Rule.name r with
      | Some n -> Rule.with_name n inst
      | None -> inst)
  with Dead -> None

let instances ?(budget = Budget.unlimited) ~universe r =
  Herbrand.instantiations universe (Rule.vars r)
  |> Seq.filter_map (fun s ->
         Budget.tick budget;
         finalize_instance (Rule.apply s r))
  |> List.of_seq

(* ------------------------------------------------------------------ *)
(* Relevance-driven grounding                                          *)
(* ------------------------------------------------------------------ *)

module Idx = struct
  type t = (string * bool, Literal.t list ref) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (idx : t) (l : Literal.t) =
    let key = (l.atom.pred, l.pol) in
    match Hashtbl.find_opt idx key with
    | Some cell -> cell := l :: !cell
    | None -> Hashtbl.add idx key (ref [ l ])

  let find (idx : t) (l : Literal.t) =
    match Hashtbl.find_opt idx (l.atom.pred, l.pol) with
    | Some cell -> !cell
    | None -> []
end

(* Match the ordinary body literals of [r] left-to-right against the
   indexed literal set, requiring (for semi-naive evaluation) that at least
   one of them matches a literal of [delta] when [delta] is non-empty.
   Remaining unbound variables are enumerated over [universe]. *)
let instances_against ~budget ~naf ~universe ~idx ~delta_idx ~use_delta
    (r : Rule.t) =
  let ordinary =
    List.filter
      (fun l ->
        (not (Ground.Builtin.is_builtin_literal l))
        && not (naf && Literal.is_negative l))
      (Rule.body r)
  in
  let out = ref [] in
  let rec go lits subst used_delta =
    Budget.tick budget;
    match lits with
    | [] ->
      if (not use_delta) || used_delta then begin
        let bound = Rule.apply subst r in
        let leftover = Rule.vars bound in
        Herbrand.instantiations universe leftover
        |> Seq.iter (fun s ->
               Budget.tick budget;
               match finalize_instance (Rule.apply s bound) with
               | Some inst -> out := inst :: !out
               | None -> ())
      end
    | (l : Literal.t) :: rest ->
      let l' = Subst.apply_literal subst l in
      let try_cands from_delta cands =
        List.iter
          (fun cand ->
            match Unify.match_literal ~init:subst l' cand with
            | Some subst' -> go rest subst' (used_delta || from_delta)
            | None -> ())
          cands
      in
      (* Candidates: to avoid duplicate work in semi-naive rounds we match
         against old facts and delta separately only through the flag. *)
      try_cands false (Idx.find idx l');
      try_cands true (Idx.find delta_idx l')
  in
  go ordinary Subst.empty false;
  !out

let relevant ?(budget = Budget.unlimited) ?(naf = false) ?depth rules =
  let universe = Herbrand.universe ?depth (Herbrand.signature_of_rules rules) in
  let old_idx = Idx.create () in
  let seen = ref Literal.Set.empty in
  let produced = ref Rule.Set.empty in
  (* Round 0: all rules against the (empty old + initial delta) database.
     Facts and rules whose variables are all unbound fall back to universe
     enumeration, seeding the derivable set. *)
  let delta = ref [] in
  let delta_idx = ref (Idx.create ()) in
  let emit (inst : Rule.t) =
    if not (Rule.Set.mem inst !produced) then begin
      produced := Rule.Set.add inst !produced;
      let h = Rule.head inst in
      if not (Literal.Set.mem h !seen) then begin
        seen := Literal.Set.add h !seen;
        delta := h :: !delta
      end
    end
  in
  List.iter
    (fun r ->
      instances_against ~budget ~naf ~universe ~idx:old_idx
        ~delta_idx:(Idx.create ()) ~use_delta:false r
      |> List.iter emit)
    rules;
  let rec loop () =
    if !delta <> [] then begin
      Budget.check budget;
      let d = !delta in
      delta := [];
      delta_idx := Idx.create ();
      List.iter (Idx.add !delta_idx) d;
      List.iter
        (fun r ->
          instances_against ~budget ~naf ~universe ~idx:old_idx
            ~delta_idx:!delta_idx ~use_delta:true r
          |> List.iter emit)
        rules;
      List.iter (Idx.add old_idx) d;
      loop ()
    end
  in
  loop ();
  Rule.Set.elements !produced
