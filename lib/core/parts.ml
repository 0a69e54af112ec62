open Logic

type search =
  branch:(int * bool * bool) array ->
  seed:(int * bool) list ->
  on_model:(Gop.Values.t -> bool) ->
  unit

(* The fail-first order: decide the most constrained atoms first.  The
   static score is the atom's occurrence count over rule heads and
   bodies — the more rules mention an atom, the more propagation and
   conflict detection a decision on it triggers.  Ties break on the atom
   id, keeping the whole enumeration deterministic. *)
let fail_first (g : Gop.t) keep =
  let n = Gop.n_atoms g in
  (* the head row, and the body rows of both literal codes of [a],
     which are adjacent *)
  let occ a =
    g.head_off.(a + 1) - g.head_off.(a)
    + g.occ_off.(Gop.code (a + 1) false) - g.occ_off.(Gop.code a false)
  in
  let atoms = Array.of_list (List.filter keep (List.init n Fun.id)) in
  Array.stable_sort (fun a b -> Int.compare (occ b) (occ a)) atoms;
  atoms

(* Branch atoms: the atoms the seed leaves undefined, with the
   polarities an assumption-free model above it could give them.  Every
   literal of such a model is derived from the seed by applied rules
   (Theorem 1(a)), so a literal is possible only if some rule with that
   head is not blocked by the seed and has every body literal true in
   the seed or possible — the least fixpoint computed below, one count
   of missing body literals per rule.  Atoms with neither literal
   possible stay undefined in every such model and are not branched on.
   The branch atoms come in the [fail_first] order.

   [scan] also joins, by union-find, each live rule's head atom with its
   undefined body atoms (see [split]) and returns the find function. *)
let scan (g : Gop.t) seed =
  let n = Gop.n_atoms g in
  let undefined a = not (Gop.Values.defined seed a) in
  let parent = Array.init n Fun.id in
  let rec find a =
    let p = parent.(a) in
    if p = a then a
    else begin
      let r = find p in
      parent.(a) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb
  in
  let poss_pos = Array.make n false and poss_neg = Array.make n false in
  let missing = Array.make (Gop.n_rules g) (-1) in
  let queue = Array.make (2 * n) 0 and tail = ref 0 in
  let mark c =
    let poss = if c land 1 = 1 then poss_pos else poss_neg in
    if not poss.(c lsr 1) then begin
      poss.(c lsr 1) <- true;
      queue.(!tail) <- c;
      incr tail
    end
  in
  for i = 0 to Gop.n_rules g - 1 do
    let h = g.head.(i) lsr 1 in
    if undefined h && not (Status.blocked g seed i) then begin
      let k = ref 0 in
      for x = g.body_off.(i) to g.body_off.(i + 1) - 1 do
        let b = g.body.(x) lsr 1 in
        if undefined b then begin
          union h b;
          incr k
        end
      done;
      missing.(i) <- !k;
      if !k = 0 then mark g.head.(i)
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let c = queue.(!head) in
    incr head;
    for k = g.occ_off.(c) to g.occ_off.(c + 1) - 1 do
      let i = g.occ.(k) in
      if missing.(i) > 0 then begin
        missing.(i) <- missing.(i) - 1;
        if missing.(i) = 0 then mark g.head.(i)
      end
    done
  done;
  let atoms = fail_first g (fun a -> poss_pos.(a) || poss_neg.(a)) in
  (Array.map (fun a -> (a, poss_pos.(a), poss_neg.(a))) atoms, find)

let branch g seed = fst (scan g seed)

type least = { codes : Gop.Values.t; interp : Interp.t option Atomic.t }

let least codes = { codes; interp = Atomic.make None }
let least_codes l = l.codes

(* Built on first use; two racing first readers build equal maps. *)
let least_interp g l =
  match Atomic.get l.interp with
  | Some m -> m
  | None ->
    let m = Gop.Values.to_interp g l.codes in
    Atomic.set l.interp (Some m);
    m

type t = {
  g : Gop.t;
  least : least;
  parts : (int * bool * bool) array array;
  part_of : int array;  (* atom -> its part, -1 off the branch *)
  pos : int array;  (* atom -> its position in its part *)
}

(* Parts of the residual: a rule that the least fixpoint neither decides
   nor blocks joins its head atom with its undefined body atoms.
   Every rule about an undefined atom thereby lands in that atom's part
   together with everything its status reads — its body, and through the
   shared head atom its suppressors' bodies — which is what makes the
   parts independent (docs/SEMANTICS.md, the split lemma).  Blocked rules
   and rules about decided atoms add no edge: nothing above the least
   fixpoint depends on them. *)
let split (g : Gop.t) least =
  let lfp = least.codes in
  let n = Gop.n_atoms g in
  let br, find = scan g lfp in
  let root_part = Array.make n (-1) in
  let np = ref 0 in
  let pid =
    Array.map
      (fun (a, _, _) ->
        let r = find a in
        if root_part.(r) < 0 then begin
          root_part.(r) <- !np;
          incr np
        end;
        root_part.(r))
      br
  in
  let size = Array.make !np 0 in
  Array.iter (fun p -> size.(p) <- size.(p) + 1) pid;
  let parts = Array.map (fun k -> Array.make k (0, false, false)) size in
  let part_of = Array.make n (-1) and pos = Array.make n (-1) in
  let fill = Array.make !np 0 in
  Array.iteri
    (fun k ((a, _, _) as b) ->
      let p = pid.(k) in
      parts.(p).(fill.(p)) <- b;
      part_of.(a) <- p;
      pos.(a) <- fill.(p);
      fill.(p) <- fill.(p) + 1)
    br;
  { g; least; parts; part_of; pos }

let n_parts t = Array.length t.parts
let atom t i q = match t.parts.(i).(q) with a, _, _ -> a

(* The literals an assignment gives the atoms of part [i], as
   [(position, polarity)] in branch order. *)
let literals t i v =
  let p = t.parts.(i) in
  let acc = ref [] in
  for q = Array.length p - 1 downto 0 do
    match Gop.Values.value v (atom t i q) with
    | Interp.True -> acc := (q, true) :: !acc
    | Interp.False -> acc := (q, false) :: !acc
    | Interp.Undefined -> ()
  done;
  !acc

(* Does an assumption-free model of part [i] properly extend [cand]?  The
   search is seeded with [cand], so a model it reports extends it; it
   extends it properly when it decides one more atom of the part.  A
   candidate that decides every atom of the part has no such extension
   and needs no search. *)
let extended ~search t i cand =
  let n = List.length cand in
  n < Array.length t.parts.(i)
  &&
  let found = ref false in
  search ~branch:t.parts.(i)
    ~seed:(List.map (fun (q, pol) -> (atom t i q, pol)) cand)
    ~on_model:(fun v ->
      let defined =
        Array.fold_left
          (fun k (a, _, _) -> if Gop.Values.defined v a then k + 1 else k)
          0 t.parts.(i)
      in
      found := defined > n;
      !found);
  !found

(* Some certified (maximal) model of part [i] satisfies [p]?  [p] is
   tried before the certifying search, which is the costly half. *)
let exists_certified ~search t i p =
  let found = ref false in
  search ~branch:t.parts.(i) ~seed:[] ~on_model:(fun v ->
      let cand = literals t i v in
      found := p cand && not (extended ~search t i cand);
      !found);
  !found

(* ------------------------------------------------------------------ *)
(* Part keys and carried lists                                         *)
(* ------------------------------------------------------------------ *)

(* A part's key codes everything its search reads (docs/SEMANTICS.md
   §5.1, "Part keys"), with atoms by branch position: the part's size;
   each position's possible polarities; per position, the live rules
   with that head atom, in rule order — head polarity and body, with
   the body literals the least fixpoint makes true dropped, a literal
   on a branch atom coded by its position and polarity, and a literal
   on an undefined atom that is not a branch atom (one that stays
   undefined in every assumption-free model) coded [0]; and per rule,
   its live overrulers and defeaters by their rank among those rules.
   [local] is scratch, one slot per rule, -1 on entry and on exit. *)
let key t local i =
  let g = t.g and p = t.parts.(i) in
  let b = Buffer.create 64 in
  let rec int k =
    if k < 128 then Buffer.add_char b (Char.unsafe_chr k)
    else begin
      Buffer.add_char b (Char.unsafe_chr (k land 127 lor 128));
      int (k lsr 7)
    end
  in
  let live r = not (Status.blocked g t.least.codes r) in
  int (Array.length p);
  Array.iter
    (fun (_, pos, neg) -> int ((if pos then 1 else 0) lor if neg then 2 else 0))
    p;
  let rules = ref [] and n = ref 0 in
  Array.iter
    (fun (a, _, _) ->
      let live_here = ref 0 in
      Gop.iter_about g a (fun r -> if live r then incr live_here);
      int !live_here;
      Gop.iter_about g a (fun r ->
          if live r then begin
            local.(r) <- !n;
            incr n;
            rules := r :: !rules;
            int (g.head.(r) land 1);
            let lo = g.body_off.(r) and hi = g.body_off.(r + 1) in
            let open_ k =
              not (Gop.Values.defined t.least.codes (g.body.(k) lsr 1))
            in
            let m = ref 0 in
            for k = lo to hi - 1 do
              if open_ k then incr m
            done;
            int !m;
            for k = lo to hi - 1 do
              if open_ k then begin
                let c = g.body.(k) lsr 1 in
                int
                  (if t.part_of.(c) = i then
                     2 + (2 * t.pos.(c)) + if g.body.(k) land 1 = 1 then 0 else 1
                   else 0)
              end
            done
          end))
    p;
  let edges lo hi =
    let ks = ref [] in
    for k = lo to hi - 1 do
      let l = local.(g.sup.(k)) in
      if l >= 0 then ks := l :: !ks
    done;
    let ks = List.sort Int.compare !ks in
    int (List.length ks);
    List.iter int ks
  in
  let rules = List.rev !rules in
  List.iter
    (fun r ->
      edges g.sup_off.(r) g.def_off.(r);
      edges g.def_off.(r) g.sup_off.(r + 1))
    rules;
  List.iter (fun r -> local.(r) <- -1) rules;
  Buffer.contents b

(* A part's certified list as far as some listing got, by position: the
   certified models, the verdict on every candidate the enumeration met
   (in its order), and whether the list is whole.  Never mutated. *)
type entry = {
  models : (int * bool) list array;
  verdicts : bool array;
  complete : bool;
}

module Table = Map.Make (String)

type table = entry Table.t

let empty = Table.empty
let size = Table.cardinal

type carry = {
  mutable table : table;
  mutable hits : int;
  mutable searches : int;
}

let carry table = { table; hits = 0; searches = 0 }

(* The working copy of one key's list during a listing: a carried
   entry's arrays, extended by [push]; [grown] once it searched. *)
type work = {
  mutable got : (int * bool) list array;
  mutable n_got : int;
  mutable verd : bool array;
  mutable n_verd : int;
  mutable whole : bool;
  mutable grown : bool;
  old : entry option;
}

let work_of old =
  match old with
  | Some e ->
    { got = e.models; n_got = Array.length e.models; verd = e.verdicts;
      n_verd = Array.length e.verdicts; whole = e.complete; grown = false; old }
  | None ->
    { got = [||]; n_got = 0; verd = [||]; n_verd = 0; whole = false;
      grown = false; old }

(* [arr] with [x] at index [n], copied into a larger array when full
   (so a carried entry's arrays are never written). *)
let push arr n x =
  let arr =
    if n < Array.length arr then arr
    else Array.init (max 4 (2 * n)) (fun k -> if k < n then arr.(k) else x)
  in
  arr.(n) <- x;
  arr

let entry_of w =
  match w.old with
  | Some e when not w.grown -> e
  | _ ->
    { models = Array.sub w.got 0 w.n_got;
      verdicts = Array.sub w.verd 0 w.n_verd;
      complete = w.whole }

(* Call [f] on part [i]'s certified models with their index among them,
   first from [w]'s prefix and then, unless [w] is whole, by running the
   part's enumeration; [f] returns [true] to stop.  The enumeration
   meets the prefix's models again, in the same order, and skips the
   certifying search of every candidate [w] holds a verdict on.  Returns
   whether it searched. *)
let certified ~search t w i f =
  let rec cached k = k < w.n_got && (f k w.got.(k) || cached (k + 1)) in
  if cached 0 || w.whole then false
  else begin
    let seen = ref 0 and got = ref 0 and stopped = ref false in
    w.grown <- true;
    search ~branch:t.parts.(i) ~seed:[] ~on_model:(fun v ->
        let c = !seen in
        incr seen;
        let cand = literals t i v in
        let ok =
          if c < w.n_verd then w.verd.(c)
          else begin
            let ok = not (extended ~search t i cand) in
            w.verd <- push w.verd w.n_verd ok;
            w.n_verd <- w.n_verd + 1;
            ok
          end
        in
        ok
        &&
        let k = !got in
        incr got;
        k >= w.n_got
        && begin
          w.got <- push w.got w.n_got cand;
          w.n_got <- w.n_got + 1;
          stopped := f k cand;
          !stopped
        end);
    if not !stopped then w.whole <- true;
    true
  end

(* The listing runs the parts from the last to the first.  Part [j]'s
   run streams its certified models; each one (past the first, which
   the first tuple already used, unless [j] is the last part) is
   combined with the parts before [j] at their first models and with
   every model of the parts after [j], whose runs are complete — exactly
   the next stretch of the lexicographic order.  So a model is listed
   as soon as it is certified, and a part is searched only as far as
   the listing up to [limit] reaches.  With [carry], parts with equal
   keys share one working list, seeded from the carried table. *)
let stable_models ?limit ?(budget = Budget.unlimited) ?stats ?carry ~search t =
  let want = match limit with Some l -> max l 0 | None -> max_int in
  let np = n_parts t in
  let keys, works =
    match carry with
    | None -> ([||], Array.init np (fun _ -> work_of None))
    | Some c ->
      let local = Array.make (Gop.n_rules t.g) (-1) in
      let keys = Array.init np (key t local) in
      let shared = Hashtbl.create np in
      ( keys,
        Array.map
          (fun k ->
            match Hashtbl.find_opt shared k with
            | Some w -> w
            | None ->
              let w = work_of (Table.find_opt k c.table) in
              Hashtbl.add shared k w;
              w)
          keys )
  in
  let read = Array.make np false and searched = Array.make np false in
  let searches = ref 0 in
  let run j f =
    read.(j) <- true;
    if certified ~search t works.(j) j f then begin
      searched.(j) <- true;
      incr searches
    end
  in
  let models = Array.make np [||] in
  let current = Array.make np [] in
  let base = least_interp t.g t.least in
  let acc = ref [] in
  let count = ref 0 in
  let emit () =
    Budget.poll_deadline budget;
    let m = ref base in
    Array.iteri
      (fun l lits ->
        List.iter
          (fun (q, pol) -> m := Interp.set !m t.g.Gop.atoms.(atom t l q) pol)
          lits)
      current;
    acc := !m :: !acc;
    incr count
  in
  let rec emit_from l =
    if l = np then emit ()
    else
      Array.iter
        (fun m ->
          if !count < want then begin
            current.(l) <- m;
            emit_from (l + 1)
          end)
        models.(l)
  in
  let r =
    try
      if want > 0 then
        if np = 0 then emit ()
        else begin
          let first_found = ref true in
          for j = 0 to np - 2 do
            let found = ref false in
            run j (fun _ m ->
                current.(j) <- m;
                found := true;
                true);
            first_found := !first_found && !found
          done;
          let j = ref (np - 1) in
          while !first_found && !j >= 0 && !count < want do
            let all = ref [] in
            let start = if !j = np - 1 then 0 else 1 in
            run !j (fun i m ->
                all := m :: !all;
                if i >= start then begin
                  current.(!j) <- m;
                  emit_from (!j + 1)
                end;
                !count >= want);
            models.(!j) <- Array.of_list (List.rev !all);
            (match !all with [] -> first_found := false | _ -> ());
            decr j
          done
        end;
      Budget.Complete (List.rev !acc)
    with Budget.Exhausted r -> Budget.Partial (List.rev !acc, r)
  in
  (match stats with
  | Some s -> s.Counters.models <- s.Counters.models + !count
  | None -> ());
  (match carry with
  | None -> ()
  | Some c ->
    let table = ref Table.empty in
    Array.iteri
      (fun j k ->
        let w = works.(j) in
        if (w.n_got > 0 || w.n_verd > 0 || w.whole) && not (Table.mem k !table)
        then table := Table.add k (entry_of w) !table;
        if read.(j) && not searched.(j) then c.hits <- c.hits + 1)
      keys;
    c.table <- !table;
    c.searches <- c.searches + !searches);
  r

let is_stable ~search t interp =
  Model.is_assumption_free t.g interp
  &&
  let v, _ = Gop.Values.of_interp t.g interp in
  let rec go i =
    i >= n_parts t
    || ((not (extended ~search t i (literals t i v))) && go (i + 1))
  in
  go 0

(* Where a literal's value across the stable models is decided: by the
   least fixpoint, by one part (as a positional literal), or nowhere
   (no stable model defines its atom). *)
let locate t (l : Literal.t) =
  match Gop.atom_id t.g l.Literal.atom with
  | None -> `Nowhere
  | Some a ->
    if Gop.Values.defined t.least.codes a then
      `Lfp (Gop.Values.value_lit t.g t.least.codes l = Interp.True)
    else if t.part_of.(a) < 0 then `Nowhere
    else `Part (t.part_of.(a), (t.pos.(a), l.Literal.pol))

let cautious ~search t l =
  match locate t l with
  | `Nowhere -> false
  | `Lfp b -> b
  | `Part (i, lit) ->
    not (exists_certified ~search t i (fun cand -> not (List.mem lit cand)))

let brave ~search t l =
  match locate t l with
  | `Nowhere -> false
  | `Lfp b -> b
  | `Part (i, lit) -> exists_certified ~search t i (List.mem lit)

let cautious_consequences ~search t =
  let acc = ref (least_interp t.g t.least) in
  for i = 0 to n_parts t - 1 do
    let all = ref [] in
    ignore
      (certified ~search t (work_of None) i (fun _ m ->
           all := m :: !all;
           false)
        : bool);
    match !all with
    | [] -> ()
    | m :: rest ->
      List.iter
        (fun (q, pol) -> acc := Interp.set !acc t.g.Gop.atoms.(atom t i q) pol)
        (List.filter (fun lit -> List.for_all (List.mem lit) rest) m)
  done;
  !acc
