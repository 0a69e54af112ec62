open Logic

let exceptions_component = "exceptions"
let general_component = "general"
let cwa_component = "cwa"

let three_level rules =
  let general, exceptions = List.partition Rule.is_seminegative rules in
  Program.make_exn
    [ (exceptions_component, exceptions);
      (general_component, general @ Bridge.reflexive_rules rules);
      (cwa_component, Bridge.cwa_rules rules)
    ]
    [ (exceptions_component, general_component);
      (general_component, cwa_component);
      (exceptions_component, cwa_component)
    ]

let ground_3v ?depth rules =
  let prog = three_level rules in
  Gop.ground ?depth prog
    (Program.component_id_exn prog exceptions_component)

let is_model ?depth rules interp = Model.is_model (ground_3v ?depth rules) interp

let is_assumption_free ?depth rules interp =
  Model.is_assumption_free (ground_3v ?depth rules) interp

let least_model ?depth rules = Vfix.least_model (ground_3v ?depth rules)

(* ------------------------------------------------------------------ *)
(* Definition 11: the direct semantics                                 *)
(* ------------------------------------------------------------------ *)

let ground_program ?depth rules =
  Ground.Grounder.naive ?depth rules

(* Definition 11(a), with the correction required for Theorem 2 to hold
   (see Test_deviations for the counterexample to the literal statement):
   a rule whose head is *false* needs an *applied* exception (a negative
   rule with complementary head and true body — mirroring Definition 3(a),
   "overruled by an applied rule"), while a rule whose head is *undefined*
   only needs a *non-blocked* exception (body not false — mirroring
   Definition 3(b), "overruled or defeated"). *)
let direct_is_model ground_rules interp =
  let exception_for head ~min_body =
    List.exists
      (fun (e : Rule.t) ->
        Literal.is_negative (Rule.head e)
        && Literal.equal (Rule.head e) (Literal.neg head)
        && Interp.compare_value
             (Interp.value_conj interp (Rule.body e))
             min_body
           >= 0)
      ground_rules
  in
  List.for_all
    (fun (r : Rule.t) ->
      let hv = Interp.value_lit interp (Rule.head r) in
      let bv = Interp.value_conj interp (Rule.body r) in
      Interp.compare_value hv bv >= 0
      ||
      match hv with
      | Interp.False -> exception_for (Rule.head r) ~min_body:Interp.True
      | Interp.Undefined ->
        exception_for (Rule.head r) ~min_body:Interp.Undefined
      | Interp.True -> false)
    ground_rules

(* Definition 11(b), corrected (see the deviations test suite).

   The paper — following [SZ] — lets assumption sets range over subsets
   of I+ only: a negative literal always has the (implicit) closed-world
   fact behind it.  That matches the literal Definition 8, under which an
   applied rule grounds its head even when suppressed; with the corrected
   Definition 8 (suppressed rules ground nothing — required for Theorem
   1(a) to hold) a closed-world fact that is overruled by a non-blocked
   positive rule no longer grounds its literal, and negative literals can
   be assumptions too.  The corrected direct conditions, expressed purely
   classically:

   - positive A in X: every rule with head A is non-applicable, or
     overruled (some negative rule with head -A has a body that is not
     false), or has a body literal in X (the implicit reflexive rule
     A :- A always satisfies the last clause, so it needs no case);
   - negative -A in X: every negative rule with head -A is non-applicable
     or has a body literal in X, {e and} the implicit closed-world fact
     -A is overruled: some rule with head A has a body that is not false
     (the implicit reflexive rule A :- A is blocked, since -A in I). *)
let largest_assumption_subset ground_rules interp =
  let exception_nonblocked head =
    List.exists
      (fun (e : Rule.t) ->
        Literal.is_negative (Rule.head e)
        && Literal.equal (Rule.head e) (Literal.neg head)
        && Interp.value_conj interp (Rule.body e) <> Interp.False)
      ground_rules
  in
  let positive_rule_nonblocked atom =
    List.exists
      (fun (r : Rule.t) ->
        Literal.is_positive (Rule.head r)
        && Atom.equal (Rule.head r).Literal.atom atom
        && Interp.value_conj interp (Rule.body r) <> Interp.False)
      ground_rules
  in
  let x = ref (Literal.Set.of_list (Interp.to_literals interp)) in
  let changed = ref true in
  while !changed do
    changed := false;
    Literal.Set.iter
      (fun a ->
        let keep =
          if Literal.is_positive a then
            List.for_all
              (fun (r : Rule.t) ->
                (not (Literal.equal (Rule.head r) a))
                || Interp.compare_value
                     (Interp.value_conj interp (Rule.body r))
                     Interp.Undefined
                   <= 0
                || exception_nonblocked a
                || List.exists (fun b -> Literal.Set.mem b !x) (Rule.body r))
              ground_rules
          else
            List.for_all
              (fun (r : Rule.t) ->
                (not (Literal.equal (Rule.head r) a))
                || Interp.compare_value
                     (Interp.value_conj interp (Rule.body r))
                     Interp.Undefined
                   <= 0
                || List.exists (fun b -> Literal.Set.mem b !x) (Rule.body r))
              ground_rules
            && positive_rule_nonblocked a.Literal.atom
        in
        if not keep then begin
          x := Literal.Set.remove a !x;
          changed := true
        end)
      !x
  done;
  Literal.Set.elements !x

let direct_is_assumption_free ground_rules interp =
  direct_is_model ground_rules interp
  && largest_assumption_subset ground_rules interp = []

let direct_stable_models ?limit ground_rules =
  let atoms =
    List.fold_left
      (fun acc (r : Rule.t) ->
        List.fold_left
          (fun acc (l : Literal.t) -> Atom.Set.add l.atom acc)
          (Atom.Set.add (Rule.head r).atom acc)
          (Rule.body r))
      Atom.Set.empty ground_rules
    |> Atom.Set.elements |> Array.of_list
  in
  let acc = ref [] in
  let count = ref 0 in
  let full () =
    match limit with
    | Some l -> !count >= l
    | None -> false
  in
  let rec go i m =
    if not (full ()) then
      if i >= Array.length atoms then begin
        if direct_is_assumption_free ground_rules m then begin
          incr count;
          acc := m :: !acc
        end
      end
      else begin
        go (i + 1) m;
        go (i + 1) (Interp.set m atoms.(i) true);
        go (i + 1) (Interp.set m atoms.(i) false)
      end
  in
  go 0 Interp.empty;
  let models = List.rev !acc in
  List.filter
    (fun m ->
      not
        (List.exists
           (fun m' -> (not (Interp.equal m m')) && Interp.subset m m')
           models))
    models
