open Logic
module G = Ground.Grounder

(* The atom index: [table] maps the atoms below [bound] to their ids; it
   may map others to stale ids, and the atoms from [bound] up are in
   [fresh].  A table is never changed once built, so a splice that moves
   no atom shares it and only rebuilds the short [fresh] list. *)
type index = {
  table : int Atom.Tbl.t;
  bound : int;
  fresh : (Atom.t * int) list;
}

let index atoms =
  let table = Atom.Tbl.create (2 * Array.length atoms) in
  Array.iteri (fun i a -> Atom.Tbl.add table a i) atoms;
  { table; bound = Array.length atoms; fresh = [] }

let find (ix : index) a =
  match Atom.Tbl.find_opt ix.table a with
  | Some i when i < ix.bound -> Some i
  | _ ->
    let rec go = function
      | [] -> None
      | (b, i) :: rest -> if Atom.equal a b then Some i else go rest
    in
    go ix.fresh

(* A [fresh] list past this length is folded into a new table. *)
let max_fresh = 16

type t = {
  program : Program.t;
  comp : Program.component_id;
  atoms : Atom.t array;
  ids : index;
  head : int array;
  rule_comp : Program.component_id array;
  rule_name : string option array;
  body_off : int array;
  body : int array;
  occ_off : int array;
  occ : int array;
  head_off : int array;
  by_head : int array;
  sup_off : int array;
  def_off : int array;
  sup : int array;
  suppresses_off : int array;
  suppresses : int array;
}

let code a pol = (2 * a) + Bool.to_int pol

(* The inverse of a CSR relation: item [i] relates to the rows
   [payload.(k)] for [k] from [off.(i)] to [off.(i + 1) - 1].  Returns
   it as CSR over [rows] rows, each row listing its items ascending.
   Counted, then filled from the last item down, each row's offset
   counting down from its end to its start, so no cursor array is
   needed. *)
let transpose ~rows (off : int array) (payload : int array) =
  let roff = Array.make (rows + 1) 0 in
  Array.iter (fun r -> roff.(r) <- roff.(r) + 1) payload;
  for r = 1 to rows do
    roff.(r) <- roff.(r) + roff.(r - 1)
  done;
  let items = Array.make (Array.length payload) 0 in
  for i = Array.length off - 2 downto 0 do
    for k = off.(i + 1) - 1 downto off.(i) do
      let r = payload.(k) in
      roff.(r) <- roff.(r) - 1;
      items.(roff.(r)) <- i
    done
  done;
  (roff, items)

(* Definition 2 rows.  Only the rules whose head is one atom can
   overrule, defeat or be suppressed by each other, and only rules of
   opposite polarity meet: [opp] lists each atom's [by_head] row with its
   positive rules first, [mid] where its negative ones start, so a rule's
   contradictors are one slice of [opp] and a head atom all of whose
   rules share a polarity costs one pass. *)
let suppression poset ~rule_comp ~head ~head_off ~by_head =
  let na = Array.length head_off - 1 and nr = Array.length head in
  let opp = Array.make (Array.length by_head) 0 and mid = Array.make na 0 in
  for a = 0 to na - 1 do
    let k = ref head_off.(a) in
    for x = head_off.(a) to head_off.(a + 1) - 1 do
      if head.(by_head.(x)) land 1 = 1 then begin
        opp.(!k) <- by_head.(x);
        incr k
      end
    done;
    mid.(a) <- !k;
    for x = head_off.(a) to head_off.(a + 1) - 1 do
      if head.(by_head.(x)) land 1 = 0 then begin
        opp.(!k) <- by_head.(x);
        incr k
      end
    done
  done;
  (* the contradictors of rule [i], ascending: [opp] from [first i] to
     [last i - 1] *)
  let first i =
    if head.(i) land 1 = 1 then mid.(head.(i) lsr 1)
    else head_off.(head.(i) lsr 1)
  in
  let last i =
    if head.(i) land 1 = 1 then head_off.((head.(i) lsr 1) + 1)
    else mid.(head.(i) lsr 1)
  in
  (* Definition 2 for contradictor [j] of rule [i]: [j] overrules [i]
     when C(j) < C(i) ([`O]), and defeats it when C(j) = C(i) or the two
     are incomparable ([`D]); at most two order lookups *)
  let rel i j =
    let ci = rule_comp.(i) and cj = rule_comp.(j) in
    if ci = cj then `D
    else if Poset.lt poset cj ci then `O
    else if Poset.lt poset ci cj then `None
    else `D
  in
  (* counted into [sup_off] (all) and [def_off] (overrulers), then
     filled: the suppressor rows, overrulers then defeaters *)
  let sup_off = Array.make (nr + 1) 0 and def_off = Array.make nr 0 in
  for i = 0 to nr - 1 do
    for x = first i to last i - 1 do
      match rel i opp.(x) with
      | `O ->
        def_off.(i) <- def_off.(i) + 1;
        sup_off.(i + 1) <- sup_off.(i + 1) + 1
      | `D -> sup_off.(i + 1) <- sup_off.(i + 1) + 1
      | `None -> ()
    done
  done;
  for i = 0 to nr - 1 do
    sup_off.(i + 1) <- sup_off.(i + 1) + sup_off.(i);
    def_off.(i) <- def_off.(i) + sup_off.(i)
  done;
  let sup = Array.make sup_off.(nr) 0 in
  for i = 0 to nr - 1 do
    let o = ref sup_off.(i) and d = ref def_off.(i) in
    for x = first i to last i - 1 do
      match rel i opp.(x) with
      | `O ->
        sup.(!o) <- opp.(x);
        incr o
      | `D ->
        sup.(!d) <- opp.(x);
        incr d
      | `None -> ()
    done
  done;
  (* the inverse: the rules each rule suppresses *)
  let suppresses_off, suppresses = transpose ~rows:nr sup_off sup in
  (sup_off, def_off, sup, suppresses_off, suppresses)

(* Every row derived from the rule table (heads, components, names and
   bodies): the body occurrences, the head rows and the suppression rows
   against [program]'s order. *)
let assemble ~program ~comp ~atoms ~ids ~head ~rule_comp ~rule_name ~body_off
    ~body =
  let na = Array.length atoms and nr = Array.length head in
  let occ_off, occ = transpose ~rows:(2 * na) body_off body in
  (* the head rows: counted, then filled from the last rule down *)
  let head_off = Array.make (na + 1) 0 in
  Array.iter (fun c -> head_off.(c lsr 1) <- head_off.(c lsr 1) + 1) head;
  for a = 1 to na do
    head_off.(a) <- head_off.(a) + head_off.(a - 1)
  done;
  let by_head = Array.make nr 0 in
  for i = nr - 1 downto 0 do
    let a = head.(i) lsr 1 in
    head_off.(a) <- head_off.(a) - 1;
    by_head.(head_off.(a)) <- i
  done;
  let sup_off, def_off, sup, suppresses_off, suppresses =
    suppression (Program.poset program) ~rule_comp ~head ~head_off ~by_head
  in
  { program;
    comp;
    atoms;
    ids;
    head;
    rule_comp;
    rule_name;
    body_off;
    body;
    occ_off;
    occ;
    head_off;
    by_head;
    sup_off;
    def_off;
    sup;
    suppresses_off;
    suppresses
  }

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

(* Sort the [n] literal codes of [a] from [off] in place (insertion
   sort: bodies are short) and return how many distinct ones lead. *)
let sort_dedup cmp (a : int array) off n =
  for i = off + 1 to off + n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= off && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let m = ref (min n 1) in
  for i = 1 to n - 1 do
    if a.(off + i) <> a.(off + !m - 1) then begin
      a.(off + !m) <- a.(off + i);
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
   rule table.  Returns the table's atom of each gop atom id, and the
   heads, components, names, body offsets and bodies; the groups' keys
   are rewritten to gop atom ids. *)
let number tbl groups =
  let np = G.n_atoms tbl in
  let gid = Array.make np (-1) in
  let order = Array.make np 0 in
  let na = ref 0 in
  (* a table literal code as a gop literal code, numbering its atom *)
  let lit c =
    let p = c lsr 1 in
    if gid.(p) < 0 then begin
      gid.(p) <- !na;
      order.(!na) <- p;
      incr na
    end;
    (2 * gid.(p)) + (c land 1)
  in
  let cmp = G.compare_lits tbl in
  let nr, bound =
    List.fold_left
      (fun acc g ->
        Array.fold_left
          (fun (nr, b) k -> (nr + 1, b + Array.length k - 1))
          acc g.keys)
      (0, 0) groups
  in
  let head = Array.make nr 0 in
  let rule_comp = Array.make nr 0 in
  let rule_name = Array.make nr None in
  let body_off = Array.make (nr + 1) 0 in
  let body = Array.make bound 0 in
  let i = ref 0 in
  List.iter
    (fun g ->
      let name = Rule.name g.src in
      Array.iter
        (fun (key : int array) ->
          let r = !i in
          head.(r) <- lit key.(0);
          rule_comp.(r) <- g.comp;
          rule_name.(r) <- name;
          let off = body_off.(r) and nb = Array.length key - 1 in
          Array.blit key 1 body off nb;
          let m = sort_dedup cmp body off nb in
          for k = off to off + m - 1 do
            body.(k) <- lit body.(k)
          done;
          body_off.(r + 1) <- off + m;
          incr i;
          for k = 0 to nb do
            key.(k) <- lit key.(k)
          done)
        g.keys)
    groups;
  let body =
    if body_off.(nr) = bound then body else Array.sub body 0 body_off.(nr)
  in
  (Array.sub order 0 !na, head, rule_comp, rule_name, body_off, body)

let ground_groups ?(budget = Budget.unlimited) ?max_instances ?depth program
    comp =
  let universe = schema_universe ?depth program comp in
  let tbl = G.table universe in
  let groups =
    instantiate ~budget ~max_instances ~universe tbl (Program.view program comp)
  in
  let order, head, rule_comp, rule_name, body_off, body = number tbl groups in
  let atoms = Array.map (G.atom tbl) order in
  { gop =
      assemble ~program ~comp ~atoms ~ids:(index atoms) ~head ~rule_comp ~rule_name
        ~body_off ~body;
    groups;
    universe
  }

let ground ?budget ?max_instances ?depth program comp =
  (ground_groups ?budget ?max_instances ?depth program comp).gop

let n_atoms t = Array.length t.atoms
let n_rules t = Array.length t.head
let atom_id t a = find t.ids a
let active_base t = List.sort Atom.compare (Array.to_list t.atoms)

(* [p] holds for some entry of [row] in [lo, hi). *)
let exists_in (row : int array) lo hi p =
  let rec go k = k < hi && (p row.(k) || go (k + 1)) in
  go lo

let exists_body t i p = exists_in t.body t.body_off.(i) t.body_off.(i + 1) p
let exists_overruler t i p = exists_in t.sup t.sup_off.(i) t.def_off.(i) p
let exists_defeater t i p = exists_in t.sup t.def_off.(i) t.sup_off.(i + 1) p

let iter_about t a f =
  for k = t.head_off.(a + 1) - 1 downto t.head_off.(a) do
    f t.by_head.(k)
  done

let exists_about t a p =
  let rec go k = k >= t.head_off.(a) && (p t.by_head.(k) || go (k - 1)) in
  go (t.head_off.(a + 1) - 1)

let literal t c = Literal.make (c land 1 = 1) t.atoms.(c lsr 1)

let rule_src t i =
  let src =
    Rule.make (literal t t.head.(i))
      (List.init
         (t.body_off.(i + 1) - t.body_off.(i))
         (fun k -> literal t t.body.(t.body_off.(i) + k)))
  in
  match t.rule_name.(i) with Some n -> Rule.with_name n src | None -> src

type stats = {
  atoms : int;
  rules : int;
  body_literals : int;
  overruling_edges : int;
  defeating_edges : int;
}

let stats t =
  let overruling = ref 0 in
  for i = 0 to n_rules t - 1 do
    overruling := !overruling + t.def_off.(i) - t.sup_off.(i)
  done;
  { atoms = n_atoms t;
    rules = n_rules t;
    body_literals = Array.length t.body;
    overruling_edges = !overruling;
    defeating_edges = Array.length t.sup - !overruling
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
  | Insert of group

let splice (t : t) ~program ~fresh edits =
  let na_old = n_atoms t and nr_old = n_rules t in
  let atom i = if i < na_old then t.atoms.(i) else fresh.(i - na_old) in
  (* the rule table's size: kept rules bring their bodies, an inserted
     key at most its body (deduplication may shorten it) *)
  let nr, bound, src =
    List.fold_left
      (fun (nr, b, src) -> function
        | Keep k ->
          (nr + k, b + t.body_off.(src + k) - t.body_off.(src), src + k)
        | Drop k -> (nr, b, src + k)
        | Insert g ->
          ( nr + Array.length g.keys,
            Array.fold_left (fun b k -> b + Array.length k - 1) b g.keys,
            src ))
      (0, 0, 0) edits
  in
  if src <> nr_old then invalid_arg "Gop.splice: edits do not cover the view";
  (* an inserted instance from its key, over the old ids and the fresh
     atoms past them: the head, then the body sorted in literal order
     and deduplicated, as [number] builds it *)
  let cmp x y =
    let c = Atom.compare (atom (x lsr 1)) (atom (y lsr 1)) in
    if c <> 0 then c else Int.compare (x land 1) (y land 1)
  in
  let head = Array.make nr 0 in
  let rule_comp = Array.make nr 0 in
  let rule_name = Array.make nr None in
  let body_off = Array.make (nr + 1) 0 in
  let body = Array.make bound 0 in
  let src = ref 0 and dst = ref 0 in
  List.iter
    (function
      | Keep k ->
        let s = !src and d = !dst in
        Array.blit t.head s head d k;
        Array.blit t.rule_comp s rule_comp d k;
        Array.blit t.rule_name s rule_name d k;
        let shift = body_off.(d) - t.body_off.(s) in
        for x = 1 to k do
          body_off.(d + x) <- t.body_off.(s + x) + shift
        done;
        Array.blit t.body t.body_off.(s) body body_off.(d)
          (body_off.(d + k) - body_off.(d));
        src := s + k;
        dst := d + k
      | Drop k -> src := !src + k
      | Insert g ->
        let name = Rule.name g.src in
        Array.iter
          (fun (key : int array) ->
            let r = !dst in
            head.(r) <- key.(0);
            rule_comp.(r) <- g.comp;
            rule_name.(r) <- name;
            let nb = Array.length key - 1 in
            Array.blit key 1 body body_off.(r) nb;
            body_off.(r + 1) <-
              body_off.(r) + sort_dedup cmp body body_off.(r) nb;
            incr dst)
          g.keys)
    edits;
  let body =
    if body_off.(nr) = bound then body else Array.sub body 0 body_off.(nr)
  in
  (* Scratch numbering hands out ids in first-occurrence order: [map]
     takes every old and fresh id to its scratch id ([-1]: vanished).
     No old atom moves exactly when the atoms still present first occur
     as [0 .. m-1] and every fresh atom after them. *)
  let map = Array.make (na_old + Array.length fresh) (-1) in
  let na = ref 0 and m = ref 0 and moved = ref false in
  let see c =
    let x = c lsr 1 in
    if map.(x) < 0 then begin
      map.(x) <- !na;
      if x < na_old then begin
        (* an old atom keeps its id when only old atoms came before it *)
        if x <> !m || !m <> !na then moved := true;
        incr m
      end;
      incr na
    end
  in
  for i = 0 to nr - 1 do
    see head.(i);
    for k = body_off.(i) to body_off.(i + 1) - 1 do
      see body.(k)
    done
  done;
  let relabel (codes : int array) =
    for k = 0 to Array.length codes - 1 do
      codes.(k) <- (2 * map.(codes.(k) lsr 1)) + (codes.(k) land 1)
    done
  in
  relabel head;
  relabel body;
  let na = !na and m = !m in
  let atoms =
    if na = 0 then [||]
    else begin
      let atoms = Array.make na (atom 0) in
      Array.iteri (fun x a -> if a >= 0 then atoms.(a) <- atom x) map;
      atoms
    end
  in
  (* the atom index: rebuilt when old atoms move; else the old table,
     below the kept prefix [m], and the atoms from [m] up in [fresh] —
     the vanished ones all sit from [m] up, and so do the fresh ones *)
  let ids =
    if !moved then index atoms
    else if m = na_old && na = na_old then t.ids
    else begin
      let fresh = ref (List.filter (fun (_, i) -> i < m) t.ids.fresh) in
      for a = na - 1 downto m do
        fresh := (atoms.(a), a) :: !fresh
      done;
      if List.compare_length_with !fresh max_fresh > 0 then index atoms
      else { t.ids with bound = min t.ids.bound m; fresh = !fresh }
    end
  in
  ( assemble ~program ~comp:t.comp ~atoms ~ids ~head ~rule_comp ~rule_name
      ~body_off ~body,
    map )

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
      match atom_id from g.atoms.(i) with
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
