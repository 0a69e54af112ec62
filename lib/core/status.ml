open Logic

let lit_value (v : Gop.Values.t) c =
  match Gop.Values.value v (c lsr 1), c land 1 = 1 with
  | Interp.Undefined, _ -> Interp.Undefined
  | Interp.True, true | Interp.False, false -> Interp.True
  | Interp.True, false | Interp.False, true -> Interp.False

let applicable (g : Gop.t) v i =
  not (Gop.exists_body g i (fun c -> lit_value v c <> Interp.True))

let head_holds (g : Gop.t) v i = lit_value v g.head.(i) = Interp.True
let applied g v i = applicable g v i && head_holds g v i

(* a loop rather than [Gop.exists_body], so that the part split and
   the part keys, which ask it of every rule, allocate no closure *)
let blocked (g : Gop.t) v i =
  let k = ref g.body_off.(i) and hit = ref false in
  while (not !hit) && !k < g.body_off.(i + 1) do
    hit := lit_value v g.body.(!k) = Interp.False;
    incr k
  done;
  !hit

let overruled (g : Gop.t) v i =
  Gop.exists_overruler g i (fun j -> not (blocked g v j))

let defeated (g : Gop.t) v i =
  Gop.exists_defeater g i (fun j -> not (blocked g v j))

type report = {
  rule : Rule.t;
  component : string;
  applicable : bool;
  applied : bool;
  blocked : bool;
  overruled : bool;
  defeated : bool;
}

let report g v i =
  { rule = Gop.rule_src g i;
    component = Program.component_name g.Gop.program g.Gop.rule_comp.(i);
    applicable = applicable g v i;
    applied = applied g v i;
    blocked = blocked g v i;
    overruled = overruled g v i;
    defeated = defeated g v i
  }

let report_all g interp =
  let v, _extra = Gop.Values.of_interp g interp in
  List.init (Gop.n_rules g) (report g v)

let pp_report ppf r =
  let flags =
    List.filter_map
      (fun (b, name) -> if b then Some name else None)
      [ (r.applicable, "applicable");
        (r.applied, "applied");
        (r.blocked, "blocked");
        (r.overruled, "overruled");
        (r.defeated, "defeated")
      ]
  in
  Format.fprintf ppf "[%s] %a: %s" r.component Rule.pp r.rule
    (if flags = [] then "none" else String.concat ", " flags)
