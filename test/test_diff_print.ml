(* Differential test of the logic printers: the Buffer printers of
   [Logic.Term], [Atom], [Literal], [Rule] and [Interp] against the
   Format printers they replaced, kept verbatim in [Oracle.Print].
   [to_string], [Format.asprintf "%a" pp], and [pp] inside boxes with
   break hints at a narrow margin must all give the oracle's bytes.
   FUZZ_ITERS scales the input count (raised by `make fuzz`). *)

open Helpers
module Gen = QCheck2.Gen
module O = Oracle.Print
open Logic

let iters base =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > base -> n
    | _ -> base)
  | None -> base

(* Leaves: variables, symbols, and integers of both signs, the extremes
   included, so negative integers land under every operator. *)
let gen_leaf =
  let open Gen in
  oneof
    [ map (fun v -> Term.Var v) (oneofl [ "X"; "Y"; "Z1"; "_" ]);
      map (fun s -> Term.Sym s) (oneofl [ "a"; "bob"; "c_2" ]);
      map (fun n -> Term.Int n) (int_range (-30) 30);
      map (fun n -> Term.Int n) (oneofl [ min_int; max_int; -1; 0 ])
    ]

let ops = [ "+"; "-"; "*"; "/"; "mod" ]

(* Every arithmetic operator at every depth, unary minus, applications
   of one to three arguments, and operator names at an arity the printer
   does not write infix ([+(a, b, c)], [-(a, b)]). *)
let rec gen_term depth =
  let open Gen in
  if depth <= 0 then gen_leaf
  else
    let sub = gen_term (depth - 1) in
    frequency
      [ (2, gen_leaf);
        ( 4,
          let* op = oneofl ops and* l = sub and* r = sub in
          return (Term.App (op, [ l; r ])) );
        (2, map (fun t -> Term.App ("-", [ t ])) sub);
        ( 2,
          let* f = oneofl [ "f"; "g"; "succ" ] and* args = list_size (int_range 1 3) sub in
          return (Term.App (f, args)) );
        ( 1,
          let* op = oneofl ops and* args = list_size (oneofl [ 1; 3 ]) sub in
          return (Term.App (op, args)) )
      ]

(* A chain of nested applications, [f(g(f(... X ...)))], or of nested
   operators. *)
let gen_deep =
  let open Gen in
  let* n = int_range 10 60 and* leaf = gen_leaf in
  let* fs = list_repeat n (oneofl [ "f"; "g"; "+"; "*"; "-" ]) in
  return
    (List.fold_left
       (fun t f ->
         match f with
         | "+" | "*" -> Term.App (f, [ t; Term.Int (-2) ])
         | "-" -> Term.App ("-", [ t ])
         | f -> Term.App (f, [ t ]))
       leaf fs)

let gen_any_term = Gen.(frequency [ (6, int_range 0 5 >>= gen_term); (1, gen_deep) ])

(* Zero-arity atoms, each comparison predicate (infix at arity two,
   prefix otherwise), and ordinary predicates. *)
let gen_atom =
  let open Gen in
  let* pred = oneofl [ "p"; "q_1"; "<"; ">"; "<="; ">="; "="; "!="; "fly" ] in
  let* arity = frequency [ (2, return 0); (1, return 1); (4, return 2); (1, return 3) ] in
  let* args = list_repeat arity (int_range 0 3 >>= gen_term) in
  return (Atom.make pred args)

let gen_literal = Gen.map2 Literal.make Gen.bool gen_atom

let gen_rule =
  let open Gen in
  let* name = opt (oneofl [ "r1"; "default"; "n_2" ])
  and* head = gen_literal
  and* body = frequency [ (1, return []); (3, list_size (int_range 1 4) gen_literal) ] in
  let r = Rule.make head body in
  return (match name with Some n -> Rule.with_name n r | None -> r)

(* Up to sixty literals, most lines far past Format's 78-column margin;
   a literal that contradicts an earlier one is dropped. *)
let gen_interp =
  let open Gen in
  let* ls = list_size (int_range 0 60) gen_literal in
  return
    (List.fold_left
       (fun i (l : Literal.t) ->
         try Interp.set i l.atom l.pol with Invalid_argument _ -> i)
       Interp.empty ls)

(* [pp] inside boxes with break hints around it, at a 12-column margin,
   through a formatter of its own. *)
let in_boxes pp x =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 12;
  Format.fprintf ppf "@[<v 2>head:@,%a@,@[<hov 4>[%a;@ %a]@]@]@." pp x pp x pp x;
  Buffer.contents buf

let agree name gen ~to_string ~pp ~oracle_to_string ~oracle_pp =
  qcheck ~count:(iters 500) ~print:oracle_to_string name gen (fun x ->
      let want = oracle_to_string x in
      String.equal (to_string x) want
      && String.equal (Format.asprintf "%a" pp x) want
      && String.equal (in_boxes pp x) (in_boxes oracle_pp x))

let suite =
  [ agree "Term printer = Format oracle" gen_any_term ~to_string:Term.to_string
      ~pp:Term.pp ~oracle_to_string:O.Term.to_string ~oracle_pp:O.Term.pp;
    agree "Atom printer = Format oracle" gen_atom ~to_string:Atom.to_string
      ~pp:Atom.pp ~oracle_to_string:O.Atom.to_string ~oracle_pp:O.Atom.pp;
    agree "Literal printer = Format oracle" gen_literal
      ~to_string:Literal.to_string ~pp:Literal.pp
      ~oracle_to_string:O.Literal.to_string ~oracle_pp:O.Literal.pp;
    agree "Rule printer = Format oracle" gen_rule ~to_string:Rule.to_string
      ~pp:Rule.pp ~oracle_to_string:O.Rule.to_string ~oracle_pp:O.Rule.pp;
    agree "Interp printer = Format oracle" gen_interp
      ~to_string:Interp.to_string ~pp:Interp.pp
      ~oracle_to_string:O.Interp.to_string ~oracle_pp:O.Interp.pp
  ]
