open Logic
module G = Ground.Grounder

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
}

let dedup_body body =
  Literal.Set.elements (Literal.Set.of_list body)

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

(* Definition 2 for rule [i] against its contradictors: the rules (in
   [by_head] order) whose head is [i]'s atom with the other polarity. *)
let rec against poset (rules : grule array) ~overrulers ~defeaters
    ~suppresses i = function
  | [] -> ()
  | j :: more ->
    (* j contradicts i.  Definition 2: j overrules i when C(j) < C(i);
       j defeats i when C(j) <> C(i) or C(j) = C(i). *)
    let ci = rules.(i).comp and cj = rules.(j).comp in
    if Poset.lt poset cj ci then begin
      overrulers.(i) <- j :: overrulers.(i);
      suppresses.(j) <- i :: suppresses.(j)
    end
    else if ci = cj || Poset.incomparable poset ci cj then begin
      defeaters.(i) <- j :: defeaters.(i);
      suppresses.(j) <- i :: suppresses.(j)
    end;
    against poset rules ~overrulers ~defeaters ~suppresses i more

(* The rows of the rules whose head is one atom: they are the only rules
   that can overrule, defeat or be suppressed by each other.  [here] is
   the atom's [by_head] row; the rows of its rules must start empty.
   Only rules of opposite polarity meet, so a row of one polarity costs
   one pass. *)
let suppression_rows poset (rules : grule array) ~overrulers ~defeaters
    ~suppresses here =
  let pos, neg = List.partition (fun i -> rules.(i).head_pol) here in
  if pos <> [] && neg <> [] then
    List.iter
      (fun i ->
        against poset rules ~overrulers ~defeaters ~suppresses i
          (if rules.(i).head_pol then neg else pos))
      here

(* Everything but the atoms and the rules is derived here: the head and
   body rows, and the suppression rows against [program]'s order. *)
let assemble ~program ~comp ~atoms ~ids ~rules =
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
  for a = 0 to na - 1 do
    match by_head.(a) with
    | [] | [ _ ] -> () (* a rule alone with its head atom has no contradictor *)
    | here ->
      suppression_rows poset rules ~overrulers ~defeaters ~suppresses here
  done;
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
    suppresses
  }

let of_view program comp tagged =
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
  assemble ~program ~comp ~atoms ~ids ~rules

(* The universe of the view's schema rules' signature. *)
let schema_universe ?(depth = 0) program comp =
  Herbrand.universe ~depth
    (Herbrand.term_signature (fun scan ->
         List.iter
           (fun (_, (r : Rule.t)) ->
             scan r.head.atom;
             List.iter (fun (l : Literal.t) -> scan l.atom) r.body)
           (Program.view program comp)))

(* ------------------------------------------------------------------ *)
(* Grounding by plans                                                  *)
(* ------------------------------------------------------------------ *)

type group = {
  comp : Program.component_id;
  src : Rule.t;
  keys : int array array;
}

type grounded = { gop : t; groups : group list; universe : Term.t list }

(* Sort the first [n] literal codes in place (insertion sort: bodies are
   short) and return how many distinct ones lead. *)
let sort_dedup cmp (a : int array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let m = ref (min n 1) in
  for i = 1 to n - 1 do
    if a.(i) <> a.(!m - 1) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  !m

(* Instance keys by (component, rule name), the deduplication identity:
   only instances of one class can be equal, so each class has its own
   key table. *)
module Instance_keys = struct
  type t = (Program.component_id * string option, unit G.Key_tbl.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let fresh (t : t) c (r : Rule.t) =
    let k = (c, Rule.name r) in
    let s =
      match Hashtbl.find_opt t k with
      | Some s -> s
      | None ->
        let s = G.Key_tbl.create 16 in
        Hashtbl.add t k s;
        s
    in
    fun key ->
      (not (G.Key_tbl.mem s key))
      && begin
        G.Key_tbl.add s key ();
        true
      end

  let add t c r key = ignore (fresh t c r key : bool)
  let has_class (t : t) c (r : Rule.t) = Hashtbl.mem t (c, Rule.name r)

  let mem (t : t) c (r : Rule.t) key =
    match Hashtbl.find_opt t (c, Rule.name r) with
    | Some s -> G.Key_tbl.mem s key
    | None -> false
end

(* Instantiate every view rule through its plan, in view order.
   Instances are deduplicated per component (a rule occurring in two
   distinct components keeps distinct instances, as the paper requires
   of the function C) and per rule name, on the instance keys: the first
   occurrence in view order wins. *)
let instantiate ~budget ~max_instances ~universe tbl view =
  let seen = Instance_keys.create () in
  let count = ref 0 in
  List.map
    (fun (c, (r : Rule.t)) ->
      let kept = ref [] and produced = ref 0 in
      let fresh = Instance_keys.fresh seen c r in
      G.iter ~budget tbl (G.compile tbl r) (fun key ->
          incr produced;
          if fresh key then kept := key :: !kept);
      (* the cap counts instances per source rule, before dedup, so the
         overflow diagnostic names the rule being instantiated *)
      (match max_instances with
      | Some cap ->
        count := !count + !produced;
        if !count > cap then
          Diag.fail
            (Diag.Grounding_overflow
               { rule = Rule.to_string r;
                 produced = !count;
                 cap;
                 universe = List.length universe
               })
      | None -> ());
      { comp = c; src = r; keys = Array.of_list (List.rev !kept) })
    view

(* Number the atoms as scratch interning of the tagged view would — per
   instance the head, then the sorted deduplicated body — and build the
   ground rules.  Returns the table's atom of each gop atom id, and the
   rules; the groups' keys are rewritten to gop atom ids. *)
let number tbl ~comp groups =
  let np = G.n_atoms tbl in
  let gid = Array.make np (-1) in
  let order = Array.make np 0 in
  let na = ref 0 in
  let id p =
    let g = gid.(p) in
    if g >= 0 then g
    else begin
      gid.(p) <- !na;
      order.(!na) <- p;
      incr na;
      !na - 1
    end
  in
  (* one shared [(atom, pol)] pair per literal *)
  let none = (-1, false) in
  let pairs = Array.make (2 * np) none in
  let pair g pol =
    let k = (2 * g) + Bool.to_int pol in
    if pairs.(k) == none then pairs.(k) <- (g, pol);
    pairs.(k)
  in
  let cmp = G.compare_lits tbl in
  let width =
    List.fold_left
      (fun n g -> Array.fold_left (fun n k -> max n (Array.length k)) n g.keys)
      0 groups
  in
  let lits = Array.make width 0 in
  let lit k = pair (id (lits.(k) lsr 1)) (lits.(k) land 1 = 1) in
  let nr = List.fold_left (fun n g -> n + Array.length g.keys) 0 groups in
  let rules =
    Array.make nr { head = 0; head_pol = true; body = [||]; comp; name = None }
  in
  let i = ref 0 in
  List.iter
    (fun g ->
      let name = Rule.name g.src in
      Array.iter
        (fun (key : int array) ->
          let head = id (key.(0) lsr 1) in
          let nb = Array.length key - 1 in
          for k = 1 to nb do
            lits.(k - 1) <- key.(k)
          done;
          let body =
            match sort_dedup cmp lits nb with
            | 0 -> [||]
            | 1 -> [| lit 0 |]
            | m ->
              let b = Array.make m (lit 0) in
              for k = 1 to m - 1 do
                b.(k) <- lit k
              done;
              b
          in
          rules.(!i) <-
            { head; head_pol = key.(0) land 1 = 1; body; comp = g.comp; name };
          incr i;
          for k = 0 to Array.length key - 1 do
            key.(k) <- (2 * gid.(key.(k) lsr 1)) + (key.(k) land 1)
          done)
        g.keys)
    groups;
  (Array.sub order 0 !na, rules)

let ground_groups ?(budget = Budget.unlimited) ?max_instances ?depth program
    comp =
  let universe = schema_universe ?depth program comp in
  let tbl = G.table universe in
  let groups =
    instantiate ~budget ~max_instances ~universe tbl (Program.view program comp)
  in
  let order, rules = number tbl ~comp groups in
  let atoms = Array.map (G.atom tbl) order in
  let ids = Atom.Tbl.create (2 * Array.length atoms) in
  Array.iteri (fun g a -> Atom.Tbl.add ids a g) atoms;
  { gop = assemble ~program ~comp ~atoms ~ids ~rules; groups; universe }

let ground ?budget ?max_instances ?depth program comp =
  (ground_groups ?budget ?max_instances ?depth program comp).gop

let n_atoms t = Array.length t.atoms
let n_rules t = Array.length t.rules
let atom_id t a = Atom.Tbl.find_opt t.ids a
let active_base t = List.sort Atom.compare (Array.to_list t.atoms)

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

(* ------------------------------------------------------------------ *)
(* Splicing: repair an interned view by integer work                   *)
(* ------------------------------------------------------------------ *)

type edit =
  | Keep of int
  | Drop of int
  | Insert of (Program.component_id * Rule.t) list

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
    Some
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
        suppresses
      }
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
