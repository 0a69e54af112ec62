open Logic

type grule = {
  head : int;
  head_pol : bool;
  body : (int * bool) array;
  comp : Program.component_id;
  name : string option;  (* source rule name, kept on ground instances *)
}

type t = {
  program : Program.t;
  comp : Program.component_id;
  atoms : Atom.t array;
  ids : int Atom.Tbl.t;
  rules : grule array;
  by_head : int list array;
  by_body_pos : int list array;
  by_body_neg : int list array;
  overrulers : int list array;
  defeaters : int list array;
  suppresses : int list array;
  universe : Term.t list;
  active_base : Atom.t list;
  full_base : Atom.t list Lazy.t;
}

let dedup_body body =
  Literal.Set.elements (Literal.Set.of_list body)

module Instance_tbl = Hashtbl.Make (struct
  type t = Program.component_id * Rule.t

  let equal (c, r) (c', r') = c = c' && Rule.equal r r'

  let hash (c, (r : Rule.t)) =
    List.fold_left
      (fun h l -> (h * 31) + Literal.hash l)
      ((c * 31) + Literal.hash r.head)
      r.body
end)

(* One ground rule of a tagged view over the atom ids [intern] hands
   out: the head first, then the deduplicated body in literal order —
   the order that fixes scratch atom numbering. *)
let grule_of intern (c, (r : Rule.t)) =
  if not (Rule.is_ground r) then invalid_arg "Gop: non-ground rule in view";
  let head = intern (Rule.head r).Literal.atom in
  { head;
    head_pol = Literal.is_positive (Rule.head r);
    body =
      Array.of_list
        (List.map
           (fun (l : Literal.t) -> (intern l.atom, l.pol))
           (dedup_body (Rule.body r)));
    comp = c;
    name = Rule.name r
  }

(* Definition 2 for the rules whose head is one atom: they are the only
   rules that can overrule, defeat or be suppressed by each other.
   [here] is the atom's [by_head] row; the rows of its rules must start
   empty. *)
let suppression_rows poset rules ~overrulers ~defeaters ~suppresses here =
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if rules.(i).head_pol <> rules.(j).head_pol then begin
            (* j contradicts i.  Definition 2: j overrules i when
               C(j) < C(i); j defeats i when C(j) <> C(i) or
               C(j) = C(i). *)
            let ci = rules.(i).comp and cj = rules.(j).comp in
            if Poset.lt poset cj ci then begin
              overrulers.(i) <- j :: overrulers.(i);
              suppresses.(j) <- i :: suppresses.(j)
            end
            else if ci = cj || Poset.incomparable poset ci cj then begin
              defeaters.(i) <- j :: defeaters.(i);
              suppresses.(j) <- i :: suppresses.(j)
            end
          end)
        here)
    here

let of_view ?(depth = 0) ?(extra_constants = []) program comp tagged =
  let untagged = List.map snd tagged in
  let sg = Herbrand.signature_of_rules untagged in
  let sg =
    { sg with
      Herbrand.constants =
        Term.Set.elements
          (Term.Set.union
             (Term.Set.of_list sg.Herbrand.constants)
             (Term.Set.of_list extra_constants))
    }
  in
  let universe = Herbrand.universe ~depth sg in
  let full_base =
    lazy (Herbrand.base ~depth ~skip:Ground.Builtin.is_builtin sg)
  in
  let ids = Atom.Tbl.create 256 in
  let atoms = ref [] in
  let n = ref 0 in
  let intern a =
    match Atom.Tbl.find_opt ids a with
    | Some i -> i
    | None ->
      let i = !n in
      Atom.Tbl.add ids a i;
      atoms := a :: !atoms;
      incr n;
      i
  in
  let rules = Array.of_list (List.map (grule_of intern) tagged) in
  let atoms = Array.of_list (List.rev !atoms) in
  let na = Array.length atoms in
  let nr = Array.length rules in
  let by_head = Array.make na [] in
  let by_body_pos = Array.make na [] in
  let by_body_neg = Array.make na [] in
  Array.iteri
    (fun i r ->
      by_head.(r.head) <- i :: by_head.(r.head);
      Array.iter
        (fun (a, pol) ->
          if pol then by_body_pos.(a) <- i :: by_body_pos.(a)
          else by_body_neg.(a) <- i :: by_body_neg.(a))
        r.body)
    rules;
  let overrulers = Array.make nr [] in
  let defeaters = Array.make nr [] in
  let suppresses = Array.make nr [] in
  let poset = Program.poset program in
  Array.iter
    (suppression_rows poset rules ~overrulers ~defeaters ~suppresses)
    by_head;
  let active =
    Array.to_list atoms |> Atom.Set.of_list |> Atom.Set.elements
  in
  { program;
    comp;
    atoms;
    ids;
    rules;
    by_head;
    by_body_pos;
    by_body_neg;
    overrulers;
    defeaters;
    suppresses;
    universe;
    active_base = active;
    full_base
  }

let schema_universe ?(depth = 0) ?(extra_constants = []) program comp =
  let untagged = List.map snd (Program.view program comp) in
  let sg = Herbrand.signature_of_rules untagged in
  let sg =
    { sg with
      Herbrand.constants =
        Term.Set.elements
          (Term.Set.union
             (Term.Set.of_list sg.Herbrand.constants)
             (Term.Set.of_list extra_constants))
    }
  in
  Herbrand.universe ~depth sg

let ground_groups ?(budget = Budget.unlimited) ?max_instances ?(depth = 0)
    ?(extra_constants = []) program comp =
  let view = Program.view program comp in
  let universe = schema_universe ~depth ~extra_constants program comp in
  (* Count instances per source rule against the cap so the overflow
     diagnostic names the rule being instantiated. *)
  let count = ref 0 in
  let guard (r : Rule.t) insts =
    (match max_instances with
    | None -> ()
    | Some cap ->
      count := !count + List.length insts;
      if !count > cap then
        Diag.fail
          (Diag.Grounding_overflow
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
        (c, r, guard r (Ground.Grounder.ground_rule_instances ~budget ~universe r)))
      view
  in
  (* Deduplicate instances per component (a rule occurring in two distinct
     components keeps distinct instances, as the paper requires of the
     function C).  The table is shared across the whole view, in view
     order, so flattening the groups reproduces the deduplicated tagged
     list exactly — incremental re-grounding (lib/inc) relies on that to
     rebuild groundings bit-identical to a from-scratch [ground]. *)
  let seen = Instance_tbl.create 256 in
  List.map
    (fun (c, src, insts) ->
      let insts =
        List.filter
          (fun r ->
            let key = (c, r) in
            if Instance_tbl.mem seen key then false
            else begin
              Instance_tbl.add seen key ();
              true
            end)
          insts
      in
      (c, src, insts))
    raw

let flatten_groups groups =
  List.concat_map
    (fun (c, _, insts) -> List.map (fun inst -> (c, inst)) insts)
    groups

let ground ?budget ?max_instances ?(depth = 0) ?(extra_constants = []) program
    comp =
  let groups =
    ground_groups ?budget ?max_instances ~depth ~extra_constants program comp
  in
  of_view ~depth ~extra_constants program comp (flatten_groups groups)

let n_atoms t = Array.length t.atoms
let n_rules t = Array.length t.rules
let atom_id t a = Atom.Tbl.find_opt t.ids a

let rule_src t i =
  let r = t.rules.(i) in
  let src =
    Rule.make
      (Literal.make r.head_pol t.atoms.(r.head))
      (Array.to_list
         (Array.map (fun (a, pol) -> Literal.make pol t.atoms.(a)) r.body))
  in
  match r.name with Some n -> Rule.with_name n src | None -> src

type stats = {
  atoms : int;
  rules : int;
  body_literals : int;
  overruling_edges : int;
  defeating_edges : int;
}

let stats t =
  { atoms = n_atoms t;
    rules = n_rules t;
    body_literals =
      Array.fold_left (fun n r -> n + Array.length r.body) 0 t.rules;
    overruling_edges =
      Array.fold_left (fun n l -> n + List.length l) 0 t.overrulers;
    defeating_edges =
      Array.fold_left (fun n l -> n + List.length l) 0 t.defeaters
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d atoms, %d rules, %d body literals, %d overruling edges, %d \
     defeating edges"
    s.atoms s.rules s.body_literals s.overruling_edges s.defeating_edges

let find_rule t comp (r : Rule.t) =
  let target_head = Rule.head r in
  let target_body = Literal.Set.of_list (Rule.body r) in
  let rec go i =
    if i >= n_rules t then None
    else
      let g = t.rules.(i) in
      let src = rule_src t i in
      if
        g.comp = comp
        && Literal.equal (Rule.head src) target_head
        && Literal.Set.equal (Rule.body_set src) target_body
      then Some i
      else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Splicing: repair an interned view by integer work                   *)
(* ------------------------------------------------------------------ *)

type edit =
  | Keep of int
  | Drop of int
  | Insert of (Program.component_id * Rule.t) list

(* The constants an atom mentions, as [Herbrand.signature_of_rules]
   collects them: at depth 0 the universe of a ground view is the set of
   constants its atoms mention ([a0] when there are none). *)
let add_constants acc (a : Atom.t) =
  let rec term acc = function
    | Term.Var _ -> acc
    | (Term.Int _ | Term.Sym _) as c -> Term.Set.add c acc
    | Term.App (_, args) -> List.fold_left term acc args
  in
  List.fold_left term acc a.Atom.args

(* Descending rule-index rows: [remap] the entries at or above [stable]
   (they all sit at the front), share the unchanged tail. *)
let rec remap_desc remap stable = function
  | i :: rest when i >= stable ->
    let rest = remap_desc remap stable rest in
    let j = remap.(i) in
    if j < 0 then rest else j :: rest
  | l -> l

let rec insert_desc i = function
  | j :: rest when j > i -> j :: insert_desc i rest
  | l -> i :: l

(* Adjacent keeps are one keep: the leading run then covers every rule
   before the first real edit, and rows of rules below it are shared
   rather than renumbered. *)
let rec coalesce = function
  | Keep a :: Keep b :: rest -> coalesce (Keep (a + b) :: rest)
  | e :: rest -> e :: coalesce rest
  | [] -> []

let splice (t : t) ~program edits =
  let edits = coalesce edits in
  let na_old = Array.length t.atoms and nr_old = Array.length t.rules in
  (* intern the inserted instances: known atoms keep their ids, unknown
     ones get provisional ids from [na_old] in first-seen order *)
  let fresh_ids = Atom.Tbl.create 16 in
  let fresh = ref [] in
  let nfresh = ref 0 in
  let intern a =
    match Atom.Tbl.find_opt t.ids a with
    | Some i -> i
    | None -> (
      match Atom.Tbl.find_opt fresh_ids a with
      | Some i -> i
      | None ->
        let i = na_old + !nfresh in
        Atom.Tbl.add fresh_ids a i;
        fresh := a :: !fresh;
        incr nfresh;
        i)
  in
  (* the new rule array, the old -> new index map ([-1]: dropped) and
     the inserted index ranges *)
  let remap = Array.make nr_old (-1) in
  let pieces = ref [] and inserted = ref [] in
  let src = ref 0 and dst = ref 0 in
  List.iter
    (function
      | Keep k ->
        for i = 0 to k - 1 do
          remap.(!src + i) <- !dst + i
        done;
        pieces := Array.sub t.rules !src k :: !pieces;
        src := !src + k;
        dst := !dst + k
      | Drop k -> src := !src + k
      | Insert tagged ->
        let gs = Array.of_list (List.map (grule_of intern) tagged) in
        inserted := (!dst, Array.length gs) :: !inserted;
        pieces := gs :: !pieces;
        dst := !dst + Array.length gs)
    edits;
  if !src <> nr_old then invalid_arg "Gop.splice: edits do not cover the view";
  let rules = Array.concat (List.rev !pieces) in
  let nr = Array.length rules in
  (* Scratch numbering hands out ids in first-occurrence order.  The old
     ids survive exactly when the atoms still present first occur as
     [0 .. m-1] and every fresh atom after them; anything else would
     renumber existing atoms, and the caller re-interns instead. *)
  let seen = Array.make (na_old + !nfresh) false in
  let next_old = ref 0 and next_new = ref na_old and ok = ref true in
  let see x =
    if not seen.(x) then begin
      seen.(x) <- true;
      if x < na_old && x = !next_old && !next_new = na_old then incr next_old
      else if x = !next_new then incr next_new
      else ok := false
    end
  in
  Array.iter
    (fun r ->
      see r.head;
      Array.iter (fun (a, _) -> see a) r.body)
    rules;
  if not !ok then None
  else begin
    let m = !next_old in
    let fresh = Array.of_list (List.rev !fresh) in
    let shift = na_old - m in
    if shift > 0 && Array.length fresh > 0 then
      List.iter
        (fun (off, len) ->
          let fix a = if a >= na_old then a - shift else a in
          for i = off to off + len - 1 do
            let r = rules.(i) in
            rules.(i) <-
              { r with
                head = fix r.head;
                body = Array.map (fun (a, pol) -> (fix a, pol)) r.body
              }
          done)
        !inserted;
    let atoms_same = shift = 0 && Array.length fresh = 0 in
    let atoms = Array.append (Array.sub t.atoms 0 m) fresh in
    let na = Array.length atoms in
    (* With no atom gone ([shift = 0]) the old constants all stay, and
       the fresh atoms can only add theirs — unless the old universe is
       the [a0] placeholder, which cannot be told from a real [a0]. *)
    let placeholder = [ Term.Sym "a0" ] in
    let universe =
      if atoms_same then t.universe
      else if shift = 0 && not (List.equal Term.equal t.universe placeholder) then
        let extra =
          Term.Set.filter
            (fun c -> not (List.exists (Term.equal c) t.universe))
            (Array.fold_left add_constants Term.Set.empty fresh)
        in
        if Term.Set.is_empty extra then t.universe
        else Term.Set.elements (Term.Set.union extra (Term.Set.of_list t.universe))
      else
        match Term.Set.elements (Array.fold_left add_constants Term.Set.empty atoms) with
        | [] -> placeholder
        | u -> u
    in
    let ids =
      if atoms_same then t.ids
      else begin
        let ids = Atom.Tbl.copy t.ids in
        for a = m to na_old - 1 do
          Atom.Tbl.remove ids t.atoms.(a)
        done;
        Array.iteri (fun k a -> Atom.Tbl.replace ids a (m + k)) fresh;
        ids
      end
    in
    (* atom rows: old rows remapped, inserted rules added in place *)
    let stable = match edits with Keep k :: _ -> k | _ -> 0 in
    let rows old =
      Array.init na (fun a ->
          if a < m then remap_desc remap stable old.(a) else [])
    in
    let by_head = rows t.by_head in
    let by_body_pos = rows t.by_body_pos in
    let by_body_neg = rows t.by_body_neg in
    let touched = Array.make na false in
    List.iter
      (fun (off, len) ->
        for i = off to off + len - 1 do
          let r = rules.(i) in
          by_head.(r.head) <- insert_desc i by_head.(r.head);
          touched.(r.head) <- true;
          Array.iter
            (fun (a, pol) ->
              if pol then by_body_pos.(a) <- insert_desc i by_body_pos.(a)
              else by_body_neg.(a) <- insert_desc i by_body_neg.(a))
            r.body
        done)
      !inserted;
    for i = 0 to nr_old - 1 do
      if remap.(i) < 0 && t.rules.(i).head < m then
        touched.(t.rules.(i).head) <- true
    done;
    (* rule rows: an untouched head keeps its rules' rows, renumbered
       (ascending, so renumbering preserves the order); a touched head's
       rows are rebuilt from its new [by_head] row *)
    let back = Array.make nr (-1) in
    Array.iteri (fun i j -> if j >= 0 then back.(j) <- i) remap;
    let renumber l =
      if List.for_all (fun j -> j < stable) l then l
      else List.map (fun j -> remap.(j)) l
    in
    let kept old =
      Array.init nr (fun i ->
          if touched.(rules.(i).head) then [] else renumber old.(back.(i)))
    in
    let overrulers = kept t.overrulers in
    let defeaters = kept t.defeaters in
    let suppresses = kept t.suppresses in
    let poset = Program.poset program in
    Array.iteri
      (fun a here ->
        if touched.(a) then
          suppression_rows poset rules ~overrulers ~defeaters ~suppresses here)
      by_head;
    let active_base =
      if atoms_same then t.active_base
      else
        List.merge Atom.compare
          (if shift = 0 then t.active_base
           else List.filter (fun a -> Atom.Tbl.find t.ids a < m) t.active_base)
          (List.sort Atom.compare (Array.to_list fresh))
    in
    let rec g =
      { program;
        comp = t.comp;
        atoms;
        ids;
        rules;
        by_head;
        by_body_pos;
        by_body_neg;
        overrulers;
        defeaters;
        suppresses;
        universe;
        active_base;
        full_base =
          lazy
            (Herbrand.base ~skip:Ground.Builtin.is_builtin
               (Herbrand.signature_of_rules (List.init nr (rule_src g))))
      }
    in
    Some g
  end

module Values = struct
  type gop = t
  type t = int array (* 0 = undefined, 1 = true, 2 = false *)

  let create (g : gop) = Array.make (Array.length g.atoms) 0
  let copy = Array.copy

  let value (v : t) i =
    match v.(i) with
    | 0 -> Interp.Undefined
    | 1 -> Interp.True
    | _ -> Interp.False

  let set (v : t) i b =
    let code = if b then 1 else 2 in
    if v.(i) <> 0 && v.(i) <> code then
      invalid_arg "Gop.Values.set: inconsistent assignment"
    else v.(i) <- code

  let unset (v : t) i = v.(i) <- 0
  let defined (v : t) i = v.(i) <> 0
  let equal (a : t) (b : t) = a = b

  let of_codes (a : int array) : t = a

  let value_lit (g : gop) (v : t) (l : Literal.t) =
    match atom_id g l.atom with
    | None -> Interp.Undefined
    | Some i ->
      if v.(i) = 0 then Interp.Undefined
      else if v.(i) = 1 = l.pol then Interp.True
      else Interp.False

  (* Atoms keep their ids across a splice as long as they are the very
     same (shared) values, so the common prefix is one blit; the rest is
     looked up by atom. *)
  let carry ~(from : gop) (v : t) (g : gop) =
    let na = Array.length g.atoms in
    let out = Array.make na 0 in
    let n = min na (Array.length from.atoms) in
    let k = ref 0 in
    while !k < n && g.atoms.(!k) == from.atoms.(!k) do
      incr k
    done;
    Array.blit v 0 out 0 !k;
    for i = !k to na - 1 do
      match Atom.Tbl.find_opt from.ids g.atoms.(i) with
      | Some j -> out.(i) <- v.(j)
      | None -> ()
    done;
    out

  let of_interp (g : gop) interp =
    let v = create g in
    let extra = ref [] in
    Interp.iter
      (fun a b ->
        match atom_id g a with
        | Some i -> set v i b
        | None -> extra := Literal.make b a :: !extra)
      interp;
    (v, List.rev !extra)

  let to_interp (g : gop) (v : t) =
    let acc = ref Interp.empty in
    Array.iteri
      (fun i code ->
        if code = 1 then acc := Interp.set !acc g.atoms.(i) true
        else if code = 2 then acc := Interp.set !acc g.atoms.(i) false)
      v;
    !acc
end
