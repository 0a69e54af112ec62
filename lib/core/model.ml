open Logic

(* Definition 3 on an encoded assignment; [extra] literals (atoms outside
   the ground program) satisfy both conditions vacuously. *)
let check_conditions (g : Gop.t) v =
  let bad = ref [] in
  let name i = Program.component_name g.Gop.program g.Gop.rule_comp.(i) in
  (* (a): defined literals must not be contradicted, except through
     blocking or overruling by an applied rule. *)
  Array.iteri
    (fun a _atom ->
      if Gop.Values.defined v a then begin
        let pol = Gop.Values.value v a = Interp.True in
        Gop.iter_about g a (fun i ->
            if g.Gop.head.(i) = Gop.code a (not pol) then
              (* H(r_i) = -A *)
              let ok =
                Status.blocked g v i
                || Gop.exists_overruler g i (Status.applied g v)
              in
              if not ok then
                bad :=
                  Format.asprintf
                    "condition (a): %a is in M but rule %a [%s] is neither \
                     blocked nor overruled by an applied rule"
                    Literal.pp
                    (Literal.make pol g.Gop.atoms.(a))
                    Rule.pp (Gop.rule_src g i) (name i)
                  :: !bad)
      end
      else
        (* (b): undefined atoms must have every applicable rule about them
           overruled or defeated. *)
        Gop.iter_about g a (fun i ->
            if
              Status.applicable g v i
              && (not (Status.overruled g v i))
              && not (Status.defeated g v i)
            then
              bad :=
                Format.asprintf
                  "condition (b): atom %a is undefined but rule %a [%s] is \
                   applicable and neither overruled nor defeated"
                  Atom.pp g.Gop.atoms.(a) Rule.pp (Gop.rule_src g i) (name i)
                :: !bad))
    g.Gop.atoms;
  List.rev !bad

let violations g interp =
  let v, _extra = Gop.Values.of_interp g interp in
  check_conditions g v

let is_model_v g v = check_conditions g v = []
let is_model g interp = violations g interp = []

(* Definition 8 says "all applied rules"; that makes Theorem 1(a) false
   when an applied rule is itself overruled or defeated (its head would
   count as grounded even though Definition 6 discounts suppressed rules
   — see the deviations test suite for a two-component counterexample).
   The default is therefore the corrected enabled version: applied and
   not suppressed, mirroring conditions (b)/(c) of Definition 6.  The
   paper's literal reading stays available for comparison. *)
let enabled_version ?(semantics = `Corrected) (g : Gop.t) v =
  List.filter
    (fun i ->
      Status.applied g v i
      &&
      match semantics with
      | `Literal -> true
      | `Corrected ->
        (not (Status.overruled g v i)) && not (Status.defeated g v i))
    (List.init (Gop.n_rules g) Fun.id)

let enabled_fixpoint ?semantics (g : Gop.t) v =
  (* Positive fixpoint over the enabled rules, literals as atomic units.
     No contradiction can arise (Lemma 2): every applied head is in M,
     which is consistent. *)
  let enabled = Array.make (Gop.n_rules g) false in
  List.iter (fun i -> enabled.(i) <- true) (enabled_version ?semantics g v);
  let out = Gop.Values.create g in
  let missing =
    Array.init (Gop.n_rules g) (fun i -> g.body_off.(i + 1) - g.body_off.(i))
  in
  let queue = Queue.create () in
  let derive c =
    if not (Gop.Values.defined out (c lsr 1)) then begin
      Gop.Values.set out (c lsr 1) (c land 1 = 1);
      Queue.add c queue
    end
  in
  Array.iteri
    (fun i e -> if e && missing.(i) = 0 then derive g.head.(i))
    enabled;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    for k = g.occ_off.(c) to g.occ_off.(c + 1) - 1 do
      let i = g.occ.(k) in
      if enabled.(i) then begin
        missing.(i) <- missing.(i) - 1;
        if missing.(i) = 0 then derive g.head.(i)
      end
    done
  done;
  out

let is_assumption_free_v ?semantics g v =
  check_conditions g v = []
  && Gop.Values.equal (enabled_fixpoint ?semantics g v) v

let is_assumption_free ?semantics g interp =
  let v, extra = Gop.Values.of_interp g interp in
  extra = [] && is_assumption_free_v ?semantics g v

(* Definition 6, as a greatest fixpoint over subsets of M.  F(X) keeps the
   literals A of X such that every rule with head A is non-applicable,
   overruled, defeated, or has a body literal in X; assumption sets are
   exactly the non-empty X with X <= F(X), and the gfp is their union. *)
let largest_assumption_set_v (g : Gop.t) v =
  let in_x = Array.make (Gop.n_atoms g) false in
  (* Start from all of M (as literal markers per atom; M has at most one
     literal per atom). *)
  Array.iteri (fun a _ -> in_x.(a) <- Gop.Values.defined v a) g.Gop.atoms;
  let lit_in_x c = in_x.(c lsr 1) && Status.lit_value v c = Interp.True in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun a _ ->
        if in_x.(a) then begin
          let pol = Gop.Values.value v a = Interp.True in
          let keeps =
            not
              (Gop.exists_about g a (fun i ->
                   g.Gop.head.(i) = Gop.code a pol
                   && Status.applicable g v i
                   && (not (Status.overruled g v i))
                   && (not (Status.defeated g v i))
                   && not (Gop.exists_body g i lit_in_x)))
          in
          if not keeps then begin
            in_x.(a) <- false;
            changed := true
          end
        end)
      g.Gop.atoms
  done;
  let acc = ref [] in
  Array.iteri
    (fun a _ ->
      if in_x.(a) then
        acc :=
          Literal.make (Gop.Values.value v a = Interp.True) g.Gop.atoms.(a)
          :: !acc)
    g.Gop.atoms;
  List.rev !acc

let largest_assumption_set g interp =
  let v, extra = Gop.Values.of_interp g interp in
  (* Literals over atoms unknown to the program vacuously satisfy
     Definition 6 (no rules at all), so they always belong. *)
  largest_assumption_set_v g v @ extra

let is_assumption_set (g : Gop.t) interp candidate =
  if candidate = [] then false
  else begin
    let v, extra = Gop.Values.of_interp g interp in
    let in_interp l =
      List.exists (Literal.equal l) extra
      ||
      match Gop.atom_id g l.Literal.atom with
      | Some a ->
        Gop.Values.value v a
        = (if l.Literal.pol then Interp.True else Interp.False)
      | None -> false
    in
    List.for_all in_interp candidate
    && List.for_all
         (fun (l : Literal.t) ->
           match Gop.atom_id g l.atom with
           | None -> true (* no rules: conditions hold vacuously *)
           | Some a ->
             not
               (Gop.exists_about g a (fun i ->
                    g.Gop.head.(i) = Gop.code a l.pol
                    && Status.applicable g v i
                    && (not (Status.overruled g v i))
                    && (not (Status.defeated g v i))
                    && not
                         (Gop.exists_body g i (fun c ->
                              let l = Gop.literal g c in
                              List.exists (Literal.equal l) candidate)))))
         candidate
  end
