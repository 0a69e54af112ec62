(* Robustness: function symbols end-to-end, large programs, deep chains
   (no stack overflows in engines, parser or printers). *)

open Logic
open Helpers

(* ------------------------------------------------------------------ *)
(* Function symbols                                                    *)
(* ------------------------------------------------------------------ *)

let test_successor_arithmetic () =
  (* Peano evenness with a depth-bounded universe. *)
  let p =
    program
      {| component main {
           nat(z).
           nat(s(X)) :- nat(X).
           even(z).
           even(s(s(X))) :- even(X).
           -even(s(X)) :- even(X).
         } |}
  in
  let g = Ordered.Gop.ground ~depth:6 p 0 in
  let m = Ordered.Vfix.least_model g in
  Alcotest.check testable_value "even(z)" Interp.True
    (Interp.value_lit m (lit "even(z)"));
  Alcotest.check testable_value "even(s(s(z)))" Interp.True
    (Interp.value_lit m (lit "even(s(s(z)))"));
  Alcotest.check testable_value "-even(s(z))" Interp.True
    (Interp.value_lit m (lit "-even(s(z))"));
  Alcotest.check testable_value "-even(s(s(s(z))))" Interp.True
    (Interp.value_lit m (lit "-even(s(s(s(z))))"))

let test_function_symbols_in_queries () =
  let p =
    program
      {| component main {
           holds(pair(a, b)).
           holds(pair(b, a)).
           sym(P) :- holds(P).
         } |}
  in
  let g = Ordered.Gop.ground ~depth:1 p 0 in
  let answers = Ordered.Query.holds_instances g (lit "sym(pair(X, Y))") in
  Alcotest.(check int) "two structured answers" 2 (List.length answers)

let test_depth_bound_controls_universe () =
  let rules = rules "p(s(z)). q(X) :- p(X). r(s(X)) :- q(X)." in
  let shallow = Ground.Grounder.naive ~depth:0 rules in
  let deep = Ground.Grounder.naive ~depth:2 rules in
  Alcotest.(check bool) "deeper universe, more instances" true
    (List.length deep > List.length shallow)

(* ------------------------------------------------------------------ *)
(* Large inputs                                                        *)
(* ------------------------------------------------------------------ *)

let big_chain n =
  let buf = Buffer.create (n * 16) in
  Buffer.add_string buf "component main {\n a0.\n";
  for i = 1 to n do
    Buffer.add_string buf (Printf.sprintf " a%d :- a%d.\n" i (i - 1))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let test_deep_chain_no_overflow () =
  let n = 20_000 in
  let p = program (big_chain n) in
  let g = Ordered.Gop.ground p 0 in
  let m = Ordered.Vfix.least_model g in
  Alcotest.(check int) "all derived" (n + 1) (Interp.cardinal m);
  Alcotest.check testable_value "last element" Interp.True
    (Interp.value_lit m (lit (Printf.sprintf "a%d" n)))

let test_parser_scales () =
  (* Parsing tens of thousands of rules stays linear and stack-safe. *)
  let src = big_chain 20_000 in
  let p = program src in
  Alcotest.(check int) "rules parsed" 20_001
    (List.length (Ordered.Program.all_rules p))

let test_goal_directed_on_large_program () =
  let p = program (big_chain 5_000) in
  let g = Ordered.Gop.ground p 0 in
  Alcotest.(check bool) "prove deep goal" true
    (Ordered.Prove.holds g (lit "a5000"));
  let _, stats = Ordered.Prove.holds_with_stats g (lit "a10") in
  Alcotest.(check int) "shallow goal explores shallow prefix" 11
    stats.Ordered.Prove.relevant_rules

let test_many_components () =
  (* A 200-deep component chain with one overruling per level. *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "component c0 { p. }\n";
  for i = 1 to 200 do
    Buffer.add_string buf
      (Printf.sprintf "component c%d extends c%d { %s }\n" i (i - 1)
         (if i mod 2 = 0 then "p." else "-p."))
  done;
  let p = program (Buffer.contents buf) in
  let g = ground_at p "c200" in
  Alcotest.check testable_value "lowest layer wins" Interp.True
    (Interp.value_lit (Ordered.Vfix.least_model g) (lit "p"))

let test_wide_bodies () =
  (* One rule with a 2000-literal body. *)
  let body = List.init 2000 (fun i -> Printf.sprintf "b%d" i) in
  let src =
    "goal :- " ^ String.concat ", " body ^ ".\n"
    ^ String.concat "\n" (List.map (fun b -> b ^ ".") body)
  in
  let p = Ordered.Program.singleton (rules src) in
  let g = ground_at p "main" in
  Alcotest.check testable_value "wide body fires" Interp.True
    (Interp.value_lit (Ordered.Vfix.least_model g) (lit "goal"))

let test_datalog_large_wfs () =
  (* Well-founded model of a 2000-position game, total positals aside. *)
  let rules =
    Lang.Parser.parse_rule "win(X) :- move(X, Y), -win(Y)."
    :: List.init 1999 (fun i ->
           Rule.fact
             (Literal.pos (Atom.make "move" [ Term.Int i; Term.Int (i + 1) ])))
  in
  let e = Datalog.Engine.load rules in
  Alcotest.check testable_value "last position lost" Interp.False
    (Datalog.Engine.holds e (lit "win(1999)"));
  Alcotest.check testable_value "second-to-last won" Interp.True
    (Datalog.Engine.holds e (lit "win(1998)"))

let suite =
  [ Alcotest.test_case "successor arithmetic with depth bound" `Quick
      test_successor_arithmetic;
    Alcotest.test_case "function symbols in query answers" `Quick
      test_function_symbols_in_queries;
    Alcotest.test_case "depth bound controls the universe" `Quick
      test_depth_bound_controls_universe;
    Alcotest.test_case "20k-deep chain, no overflow" `Slow
      test_deep_chain_no_overflow;
    Alcotest.test_case "parser scales to 20k rules" `Slow test_parser_scales;
    Alcotest.test_case "goal-directed proof on large programs" `Slow
      test_goal_directed_on_large_program;
    Alcotest.test_case "200-deep component chain" `Slow test_many_components;
    Alcotest.test_case "2000-literal body" `Slow test_wide_bodies;
    Alcotest.test_case "datalog: 2000-position game" `Slow test_datalog_large_wfs
  ]
