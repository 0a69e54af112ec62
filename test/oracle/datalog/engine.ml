open Logic

type t = {
  source : Rule.t list;
  ground : Rule.t list;
  nprog : Nprog.t;
  mutable wf : Interp.t option;  (** computed on demand, then cached *)
}

let load ?budget ?depth ?(grounder = `Relevant) source =
  let ground =
    match grounder with
    | `Relevant -> Grounder.relevant ?budget ~naf:true ?depth source
    | `Naive -> Ground.Grounder.naive ?budget ?depth source
  in
  { source; ground; nprog = Nprog.of_rules ?budget ground; wf = None }

let load_src ?budget ?depth ?grounder src =
  load ?budget ?depth ?grounder (Lang.Parser.parse_rules src)

let nprog t = t.nprog
let ground_rules t = t.ground

let minimal_model t = Nprog.decode_mask t.nprog (Consequence.lfp t.nprog)

let well_founded ?budget t =
  match t.wf with
  | Some m -> m
  | None ->
    let m = Wellfounded.model ?budget t.nprog in
    t.wf <- Some m;
    m

let stable_models ?limit ?budget t = Stable.models ?limit ?budget t.nprog
let perfect_model t = Perfect.model t.nprog t.source
let is_stratified t = Deps.is_stratified (Deps.of_rules t.source)

let holds ?budget t (l : Literal.t) =
  if not (Literal.is_ground l) then
    invalid_arg "Engine.holds: literal must be ground";
  Interp.value_lit (well_founded ?budget t) l
