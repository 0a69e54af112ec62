open Logic

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let poset prog =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph components {\n  rankdir=BT;\n";
  let names = Program.component_names prog in
  Array.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" (escape n)))
    names;
  let p = Program.poset prog in
  let n = Array.length names in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if
        Poset.lt p a b
        && not
             (List.exists
                (fun c -> Poset.lt p a c && Poset.lt p c b)
                (List.init n Fun.id))
      then
        Buffer.add_string buf
          (Printf.sprintf "  \"%s\" -> \"%s\";\n" (escape names.(a))
             (escape names.(b)))
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let derivation (g : Gop.t) (goal : Literal.t) =
  let v = Vfix.lfp g in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph derivation {\n  rankdir=BT;\n";
  (* Relevant sub-program: reuse Prove's closure via its public stats?  We
     rebuild a small closure here: literals reachable from the goal through
     rule bodies and suppressor-blocker dependencies. *)
  let seen_lit = Hashtbl.create 64 in
  let seen_rule = Hashtbl.create 64 in
  let queue = Queue.create () in
  let lit_id (l : Literal.t) = "L" ^ escape (Literal.to_string l) in
  let visit (l : Literal.t) =
    if not (Hashtbl.mem seen_lit l) then begin
      Hashtbl.add seen_lit l ();
      Queue.add l queue
    end
  in
  visit goal;
  while not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    match Gop.atom_id g l.atom with
    | None -> ()
    | Some a ->
      Gop.iter_about g a (fun i ->
          if g.Gop.head.(i) = Gop.code a l.pol && not (Hashtbl.mem seen_rule i)
          then begin
            Hashtbl.add seen_rule i ();
            let r = Gop.rule_src g i in
            List.iter visit (Rule.body r);
            for k = g.Gop.sup_off.(i) to g.Gop.sup_off.(i + 1) - 1 do
              List.iter
                (fun (b : Literal.t) -> visit (Literal.neg b))
                (Rule.body (Gop.rule_src g g.Gop.sup.(k)))
            done
          end)
  done;
  (* literal nodes, in deterministic order *)
  let lits =
    Hashtbl.fold (fun l () acc -> l :: acc) seen_lit []
    |> List.sort Literal.compare
  in
  List.iter
    (fun (l : Literal.t) ->
      let color =
        match Gop.atom_id g l.atom with
        | None -> "gray"
        | Some a -> (
          match Gop.Values.value v a, l.pol with
          | Interp.True, true | Interp.False, false -> "palegreen"
          | Interp.True, false | Interp.False, true -> "salmon"
          | Interp.Undefined, _ -> "gray90")
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  \"%s\" [label=\"%s\", style=filled, fillcolor=%s];\n"
           (lit_id l)
           (escape (Literal.to_string l))
           color))
    lits;
  (* rule nodes and edges, in deterministic order *)
  let rule_ids =
    Hashtbl.fold (fun i () acc -> i :: acc) seen_rule []
    |> List.sort Int.compare
  in
  List.iter
    (fun i ->
      let r = Gop.rule_src g i in
      let comp = Program.component_name g.Gop.program g.Gop.rule_comp.(i) in
      let fired =
        Status.applied g v i
        && (not (Status.overruled g v i))
        && not (Status.defeated g v i)
      in
      let style =
        if fired then "filled"
        else if Status.blocked g v i then "dotted"
        else if Status.overruled g v i || Status.defeated g v i then "dashed"
        else "solid"
      in
      let rid = Printf.sprintf "R%d" i in
      Buffer.add_string buf
        (Printf.sprintf
           "  %s [shape=box, label=\"%s\", style=%s, fillcolor=lightyellow];\n"
           rid (escape comp) style);
      List.iter
        (fun (b : Literal.t) ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" -> %s;\n" (lit_id b) rid))
        (Rule.body r);
      Buffer.add_string buf
        (Printf.sprintf "  %s -> \"%s\" [style=bold];\n" rid
           (lit_id (Rule.head r))))
    rule_ids;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
