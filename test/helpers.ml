(* Shared helpers for the test suites. *)

open Logic

let term = Lang.Parser.parse_term
let lit = Lang.Parser.parse_literal
let rule = Lang.Parser.parse_rule
let rules = Lang.Parser.parse_rules
let program = Ordered.Program.parse_exn

let interp lits = Interp.of_literals (List.map lit lits)

let ground_at prog name =
  Ordered.Gop.ground prog (Ordered.Program.component_id_exn prog name)

let least prog name = Ordered.Vfix.least_model (ground_at prog name)

(* A component's own rules, in order: its share of its view. *)
let local_rules prog c =
  List.filter_map
    (fun (c', r) -> if c' = c then Some r else None)
    (Ordered.Program.view prog c)

let pp_fallback ppf (f : Inc.Reground.fallback) =
  Format.pp_print_string ppf
    (match f with
    | `Universe_changed -> "universe changed"
    | `Shared_instance -> "shared ground instance"
    | `View_mismatch -> "view shape mismatch")

(* The index of the ground instance of [r] in component [comp], matched
   by head and body set. *)
let find_rule (g : Ordered.Gop.t) comp (r : Rule.t) =
  let body = Literal.Set.of_list (Rule.body r) in
  let rec go i =
    if i >= Ordered.Gop.n_rules g then None
    else
      let src = Ordered.Gop.rule_src g i in
      if
        g.Ordered.Gop.rule_comp.(i) = comp
        && Literal.equal (Rule.head src) (Rule.head r)
        && Literal.Set.equal (Literal.Set.of_list (Rule.body src)) body
      then Some i
      else go (i + 1)
  in
  go 0

(* From-scratch answers about a KB store — the reference the memoizing,
   incrementally repaired Kb.Session is compared against.  The ordered
   program is rebuilt from the store's objects, parents and rules, so the
   reference never reads the program the store keeps patched across
   rule edits and defines. *)
module Scratch = struct
  let program store =
    let objs = Kb.Store.objects store in
    Ordered.Program.make_exn
      (List.map (fun o -> (o, Kb.Store.rules store o)) objs)
      (List.concat_map
         (fun o -> List.map (fun p -> (o, p)) (Kb.Store.parents store o))
         objs)

  let gop store ~obj = ground_at (program store) obj
  let least_model store ~obj = Ordered.Vfix.least_model (gop store ~obj)
  let stable_models store ~obj = Solve.Kernel.stable_models (gop store ~obj)

  let assumption_free_models store ~obj =
    Solve.Kernel.assumption_free_models (gop store ~obj)
end

(* Definition 10: the stable models of a negative program are those of its
   3-level version, enumerated by the kernel. *)
let negative_stable_models rs =
  Ordered.Budget.value
    (Solve.Kernel.stable_models (Ordered.Negative.ground_3v rs))

(* Alcotest testables *)

let testable_term = Alcotest.testable Term.pp Term.equal
let testable_literal = Alcotest.testable Literal.pp Literal.equal
let testable_rule = Alcotest.testable Rule.pp Rule.equal
let testable_interp = Alcotest.testable Interp.pp Interp.equal

let testable_value =
  Alcotest.testable Interp.pp_value (fun a b -> a = b)

let testable_atom = Alcotest.testable Atom.pp Atom.equal

(* Compare lists of interpretations as sets. *)
let interp_set_equal l1 l2 =
  let norm l =
    List.sort_uniq compare (List.map Interp.to_literals l)
  in
  norm l1 = norm l2

let testable_interp_set =
  Alcotest.testable
    (fun ppf l ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           Interp.pp)
        l)
    interp_set_equal

let check_value ~expected g l =
  Alcotest.check testable_value l expected
    (Interp.value_lit (Ordered.Vfix.least_model g) (lit l))

(* Enumerate every interpretation over a list of atoms (3^n). *)
let all_interps atoms =
  let atoms = Array.of_list atoms in
  let acc = ref [] in
  let rec go i m =
    if i >= Array.length atoms then acc := m :: !acc
    else begin
      go (i + 1) m;
      go (i + 1) (Interp.set m atoms.(i) true);
      go (i + 1) (Interp.set m atoms.(i) false)
    end
  in
  go 0 Interp.empty;
  !acc

let qcheck ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ?print ~name gen prop)

let print_program p = Format.asprintf "%a" Ordered.Program.pp p

let print_rules rs =
  String.concat " " (List.map Logic.Rule.to_string rs)

(* In-process servers: a daemon on an ephemeral loopback port with a
   10 s request cap, built from its config as `olp serve` builds it,
   its accept loop in a thread. *)
let start_daemon ?(workers = 2) ?(parallel = `Threads) ?persist
    ?replicate_on ?sync ?replica_of () =
  let d =
    Server.Daemon.create
      { Server.Daemon.address = `Tcp ("127.0.0.1", 0);
        workers;
        parallel;
        queue = 64;
        caps = { Server.Engine.timeout = Some 10.; steps = None };
        persist;
        replicate_on;
        sync;
        replica_of
      }
  in
  (d, Thread.create Server.Daemon.serve d)

let stop_daemon (d, thread) =
  Server.Daemon.stop d;
  Thread.join thread

let with_daemon ?workers ?parallel ?persist ?replicate_on f =
  let ((d, _) as s) =
    start_daemon ?workers ?parallel ?persist ?replicate_on ()
  in
  Fun.protect ~finally:(fun () -> stop_daemon s) (fun () -> f d)

let connect_exn address =
  match Server.Client.connect ~retry:5. address with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let request_exn c line =
  match Server.Client.request_line c line with
  | Ok j -> j
  | Error e -> Alcotest.failf "request %s: %s" line e

let str_member k j =
  match Server.Wire.member k j with
  | Some (Server.Wire.String s) -> Some s
  | _ -> None

let status j = Option.value ~default:"?" (str_member "status" j)
