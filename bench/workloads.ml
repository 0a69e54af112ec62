(* Synthetic workload generators for the benchmark suite.  Each generator
   scales one of the paper's mechanisms (overruling chains, inheritance
   depth, classical recursion under OV/EV, stable-model branching) to a
   size parameter; EXPERIMENTS.md maps them to experiment ids. *)

open Logic

let rule = Lang.Parser.parse_rule

(* ------------------------------------------------------------------ *)
(* Paper figures (fixed-size)                                          *)
(* ------------------------------------------------------------------ *)

let fig1_src =
  {| component c2 {
       bird(penguin). bird(pigeon).
       fly(X) :- bird(X).
       -ground_animal(X) :- bird(X).
     }
     component c1 extends c2 {
       ground_animal(penguin).
       -fly(X) :- ground_animal(X).
     } |}

let fig2_src =
  {| component c3 { rich(mimmo). -poor(X) :- rich(X). }
     component c2 { poor(mimmo). -rich(X) :- poor(X). }
     component c1 extends c2, c3 { free_ticket(X) :- poor(X). } |}

let fig3_src facts =
  {| component c2 { take_loan :- inflation(X), X > 11. }
     component c4 { -take_loan :- loan_rate(X), X > 14. }
     component c3 extends c4 {
       take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
     }
     component c1 extends c2, c3 { |}
  ^ facts ^ " }"

(* ------------------------------------------------------------------ *)
(* B1: propagation chain (single component)                            *)
(*     a0.  a1 :- a0.  ...  an :- a(n-1).                              *)
(*     plus one guarded contradictor per layer so that suppression     *)
(*     counting is actually exercised: each -a(i+1) :- a(i), off is    *)
(*     blocked once -off (stated in the component above) is derived,   *)
(*     releasing the layer.                                            *)
(* ------------------------------------------------------------------ *)

let chain n =
  let atom i = Literal.pos (Atom.prop (Printf.sprintf "a%d" i)) in
  let off = Literal.pos (Atom.prop "off") in
  let main =
    Rule.fact (atom 0)
    :: List.concat
         (List.init n (fun i ->
              [ Rule.make (atom (i + 1)) [ atom i ];
                Rule.make (Literal.neg (atom (i + 1))) [ atom i; off ]
              ]))
  in
  Ordered.Program.make_exn
    [ ("main", main); ("axioms", [ Rule.fact (Literal.neg off) ]) ]
    [ ("main", "axioms") ]

(* ------------------------------------------------------------------ *)
(* B1b: overruling tower — d components, each overruling its parent    *)
(* ------------------------------------------------------------------ *)

let tower d =
  let p = Atom.prop "p" in
  let comp i =
    let sign = i mod 2 = 0 in
    ( Printf.sprintf "c%d" i,
      [ Rule.fact (Literal.make sign p);
        Rule.fact (Literal.pos (Atom.prop (Printf.sprintf "local%d" i)))
      ] )
  in
  let comps = List.init d comp in
  let pairs =
    List.init (d - 1) (fun i ->
        (Printf.sprintf "c%d" (i + 1), Printf.sprintf "c%d" i))
  in
  (* c(d-1) < ... < c0: the most specific component decides p *)
  Ordered.Program.make_exn comps pairs

(* ------------------------------------------------------------------ *)
(* B2/B4: ancestor over a parent chain of n nodes                      *)
(* ------------------------------------------------------------------ *)

let ancestor_rules n =
  rule "anc(X, Y) :- parent(X, Y)."
  :: rule "anc(X, Y) :- parent(X, Z), anc(Z, Y)."
  :: List.init (n - 1) (fun i ->
         Rule.fact
           (Literal.pos
              (Atom.make "parent" [ Term.Int i; Term.Int (i + 1) ])))

(* ------------------------------------------------------------------ *)
(* B3: k independent even negative loops (2^k stable models)           *)
(* ------------------------------------------------------------------ *)

let even_loops k =
  List.concat
    (List.init k (fun i ->
         let p = Literal.pos (Atom.prop (Printf.sprintf "p%d" i)) in
         let q = Literal.pos (Atom.prop (Printf.sprintf "q%d" i)) in
         [ Rule.make p [ Literal.neg q ]; Rule.make q [ Literal.neg p ] ]))

(* k even loops [a_i :- -b_i. b_i :- -a_i.] in [main], below a CWA
   component [top] stating [-a_i. -b_i.]: 3^k assumption-free models,
   2^k of them stable, one independent part per loop. *)
let cwa_loops k =
  let b = Buffer.create 256 in
  Buffer.add_string b "component top {";
  for i = 0 to k - 1 do
    Printf.bprintf b " -a%d. -b%d." i i
  done;
  Buffer.add_string b " }\ncomponent main extends top {";
  for i = 0 to k - 1 do
    Printf.bprintf b " a%d :- -b%d. b%d :- -a%d." i i i i
  done;
  Buffer.add_string b " }\n";
  Ordered.Program.parse_exn (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* B6: win/move game graph                                             *)
(* ------------------------------------------------------------------ *)

let win_move n =
  rule "win(X) :- move(X, Y), -win(Y)."
  :: List.concat
       (List.init n (fun i ->
            let move a b =
              Rule.fact
                (Literal.pos (Atom.make "move" [ Term.Int a; Term.Int b ]))
            in
            if i + 1 < n then
              if i mod 2 = 0 && i + 2 < n then [ move i (i + 1); move i (i + 2) ]
              else [ move i (i + 1) ]
            else []))

(* ------------------------------------------------------------------ *)
(* B5: knowledge-base inheritance chain of depth d                     *)
(* ------------------------------------------------------------------ *)

let kb_chain d =
  let comp i =
    let toggles =
      if i = 0 then [ rule "flag(X) :- item(X)." ]
      else if i mod 2 = 0 then [ rule "flag(X) :- item(X), relevant(X)." ]
      else [ rule "-flag(X) :- item(X)." ]
    in
    let local =
      [ Rule.fact
          (Literal.pos (Atom.make "stamp" [ Term.Int i ]))
      ]
    in
    (Printf.sprintf "v%d" i, toggles @ local)
  in
  let facts =
    [ rule "item(a)."; rule "item(b)."; rule "relevant(a)." ]
  in
  let comps =
    ("base", facts) :: List.init d comp
  in
  let pairs =
    ("v0", "base")
    :: List.init (d - 1) (fun i ->
           (Printf.sprintf "v%d" (i + 1), Printf.sprintf "v%d" i))
  in
  Ordered.Program.make_exn comps pairs

(* ------------------------------------------------------------------ *)
(* B7: k disconnected chain islands of length m each (queries against   *)
(*     one island should not pay for the others)                        *)
(* ------------------------------------------------------------------ *)

let islands k m =
  let atom i j = Literal.pos (Atom.prop (Printf.sprintf "i%d_a%d" i j)) in
  let rules =
    List.concat
      (List.init k (fun i ->
           Rule.fact (atom i 0)
           :: List.init m (fun j -> Rule.make (atom i (j + 1)) [ atom i j ])))
  in
  Ordered.Program.make_exn [ ("main", rules) ] []

let ground_at prog name =
  Ordered.Gop.ground prog (Ordered.Program.component_id_exn prog name)
