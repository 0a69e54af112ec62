(* Memoizing sessions over a Store, with lock-free snapshot reads: the
   master store is mutated under a write lock, and every successful
   mutation publishes an immutable [view] — (version, store copy,
   per-viewpoint cache) — through one atomic reference.  Readers pin the
   current view with a single [Atomic.get] and never take a lock.

   A mutation does not flush the cache wholesale: the published cache is
   carried forward through delta eviction — only the records of
   viewpoints whose cone can see the mutated object are touched, and for
   those the grounding and least model are {e repaired} through [Inc]
   (incremental re-grounding + fixpoint repair) rather than dropped
   whenever the repair is provably exact.  Every fallback to recompute
   is counted, never silent.  See session.mli and docs/INCREMENTAL.md
   for the contract. *)

module B = Ordered.Budget
module M = Governor.Metrics

type op =
  | Least
  | Models of { kind : [ `Stable | `Af ]; limit : int option }
  | Explained of string  (* printed literal *)

(* The program a record caches for its viewpoint object: the object's
   own view, or the compilation of its preference spec
   ([Prefer.Compile]), viewed from [#view]. *)
type program = Own | Prefer

type key = string * program

type rendering = ..

type entry =
  | E_least of Ordered.Gop.t * Ordered.Parts.least
      (** the least model as codes over the atom ids of the grounding
          it was computed on, with its [Interp] map once a listing or a
          [least_model] read built it; the codes are never mutated once
          cached *)
  | E_models of Logic.Interp.t list * rendering option Atomic.t
      (** a complete enumeration, and its rendering once an {!answer}
          has asked for it (rendered at most once per entry, barring a
          benign race between two first readers) *)
  | E_explain of Ordered.Explain.t

type counters = {
  hits : int;
  misses : int;
  invalidations : int;
  entries : int;
  repairs : int;
  fallbacks : int;
  evictions : int;
  kept : int;
}

module OpMap = Map.Make (struct
  type t = op

  let compare = Stdlib.compare
end)

module KeyMap = Map.Make (struct
  type t = key

  let compare (o, p) (o', p') =
    match String.compare o o' with
    | 0 -> Stdlib.compare (p : program) p'
    | c -> c
end)

(* Everything a view caches for one (viewpoint object, program): the
   grounding with provenance, the results computed from it, and the
   certified lists of the residual parts of its last stable-model
   listing, keyed by part content (so they stay exact across every
   write). *)
type vcache = {
  gstate : Inc.Reground.state option;
  results : entry OpMap.t;
  parts : Ordered.Parts.table;
}

let empty_vcache =
  { gstate = None; results = OpMap.empty; parts = Ordered.Parts.empty }

(* One published KB version.  [vstore] is a private copy nothing ever
   mutates, so any number of readers may ground and solve against it
   concurrently; the cache is an immutable map swapped by CAS (a racing
   insert retries on the fresh map, a duplicate insert is dropped —
   either way readers only ever see complete maps). *)
type view = {
  version : int;
  vstore : Store.t;
  cache : vcache KeyMap.t Atomic.t;
}

type t = {
  master : Store.t;  (* the one mutable store; guarded by [write_lock] *)
  write_lock : Mutex.t;
  current : view Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  invalidations : int Atomic.t;
  repairs : int Atomic.t;
  fallbacks : int Atomic.t;
  evictions : int Atomic.t;
  kept : int Atomic.t;
  mutable metrics : M.t option;
  mutable on_mutation : (Store.mutation -> unit) option;
}

let view_of ~version store cache =
  { version; vstore = Store.copy store; cache = Atomic.make cache }

let of_store store =
  { master = store;
    write_lock = Mutex.create ();
    current = Atomic.make (view_of ~version:0 store KeyMap.empty);
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    invalidations = Atomic.make 0;
    repairs = Atomic.make 0;
    fallbacks = Atomic.make 0;
    evictions = Atomic.make 0;
    kept = Atomic.make 0;
    metrics = None;
    on_mutation = None
  }

let create () = of_store (Store.create ())

let store t = t.master
let on_mutation t f = t.on_mutation <- Some f
let current t = Atomic.get t.current
let version t = (current t).version

let inc_counter_names =
  [ "inc_repairs"; "inc_fallbacks"; "inc_evictions"; "cache_kept";
    "part_hits"; "part_searches" ]

(* Registering the counters up front keeps the server's [stats] output
   deterministic: the names are present (at 0) before the first
   mutation or compiled enumeration. *)
let use_metrics t m =
  t.metrics <- Some m;
  List.iter (fun n -> M.add m n 0) inc_counter_names

let count_entries c =
  KeyMap.fold (fun _ vc n -> n + OpMap.cardinal vc.results) c 0

(* What a write carries for one record: its results and its part
   lists. *)
let carried vc = OpMap.cardinal vc.results + Ordered.Parts.size vc.parts

let counters t =
  { hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    invalidations = Atomic.get t.invalidations;
    entries = count_entries (Atomic.get (current t).cache);
    repairs = Atomic.get t.repairs;
    fallbacks = Atomic.get t.fallbacks;
    evictions = Atomic.get t.evictions;
    kept = Atomic.get t.kept
  }

(* ------------------------------------------------------------------ *)
(* Invalidation and delta eviction                                     *)
(* ------------------------------------------------------------------ *)

let locked t f =
  Mutex.lock t.write_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.write_lock) f

let note t cell name n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add cell n : int);
    match t.metrics with Some m -> M.add m name n | None -> ()
  end

let bump_metric t name =
  match t.metrics with Some m -> M.incr m name | None -> ()

(* Drop a record whole, its part lists with it, counting its results as
   evicted; later writes no longer visit it. *)
let evict t key vc c =
  note t t.evictions "inc_evictions" (OpMap.cardinal vc.results);
  KeyMap.remove key c

(* Repair one viewpoint's own record after a single-rule mutation of an
   object this viewpoint can see: its entries survive whenever the
   repair is provably exact; [None] evicts it. *)
let repair_viewpoint t ~program vc =
  match vc.gstate with
  | None -> None
  | Some st -> (
    match Inc.Reground.reground st ~program with
    | Ok (st', d) when Inc.Delta.is_empty d ->
      (* the mutation did not change this viewpoint's grounding at all:
         every plain entry is still exact *)
      note t t.kept "cache_kept" (carried vc);
      Some { vc with gstate = Some st' }
    | Ok (st', d) ->
      note t t.repairs "inc_repairs" 1;
      (* part lists are keyed by content: a part the edit left alone
         keeps its key, one it changed gets a new one *)
      note t t.kept "cache_kept" (Ordered.Parts.size vc.parts);
      let results =
        OpMap.filter_map
          (fun op e ->
            match (op, e) with
            | Least, E_least (old, previous) -> (
              let g = st'.Inc.Reground.gop in
              let previous = Ordered.Parts.least_codes previous in
              match Inc.Repair.least_codes ~old ~previous g d with
              | Inc.Repair.Repaired v ->
                note t t.repairs "inc_repairs" 1;
                Some (E_least (g, Ordered.Parts.least v))
              | Inc.Repair.Recomputed v ->
                note t t.fallbacks "inc_fallbacks" 1;
                Some (E_least (g, Ordered.Parts.least v))
              | Inc.Repair.Unchanged -> Some e)
            | _ ->
              note t t.evictions "inc_evictions" 1;
              None)
          vc.results
      in
      Some { vc with gstate = Some st'; results }
    | Error _ | exception _ ->
      (* a repair failure must never fail the write: evict and recount *)
      note t t.fallbacks "inc_fallbacks" 1;
      None)

(* Transform the carried cache by one applied mutation.  Caller holds
   [write_lock] and has already applied [m] to [t.master]. *)
let next_cache t c (m : Store.mutation) =
  match m with
  | Store.Define _ | Store.New_version _ ->
    (* a fresh object: existing views cannot see it (isa edges point
       at pre-existing parents), and component numbering of existing
       objects is stable *)
    note t t.kept "cache_kept"
      (KeyMap.fold (fun _ vc n -> n + carried vc) c 0);
    c
  | Store.Load _ ->
    (* load may rewire parents of existing objects and add
       preferences: no per-object cone is sound *)
    note t t.evictions "inc_evictions" (count_entries c);
    KeyMap.empty
  | Store.Set_preference _ | Store.Clear_preference _ ->
    (* rules and groundings are untouched; only the compiled preference
       programs change *)
    KeyMap.fold
      (fun key vc c ->
        match key with
        | _, Prefer -> evict t key vc c
        | _, Own ->
          note t t.kept "cache_kept" (carried vc);
          c)
      c c
  | Store.Add_rule _ | Store.Remove_rule _ when KeyMap.is_empty c -> c
  | Store.Add_rule { obj; _ } | Store.Remove_rule { obj; _ } ->
    let program = Store.to_program t.master in
    let o = Ordered.Program.component_id_exn program obj in
    (* [w]'s view [C*] contains [obj] iff [w <= obj] in the order *)
    let poset = Ordered.Program.poset program in
    let sees w =
      match Ordered.Program.component_id program w with
      | Some i -> Ordered.Poset.leq poset i o
      | None -> true
    in
    (* a preferred record is evicted whole: its program has one
       component per rule of the view and no reground path yet *)
    KeyMap.fold
      (fun ((w, prog) as key) vc c ->
        match prog with
        | _ when not (sees w) ->
          note t t.kept "cache_kept" (carried vc);
          c
        | Own -> (
          match repair_viewpoint t ~program vc with
          | Some vc -> KeyMap.add key vc c
          | None -> evict t key vc c)
        | Prefer -> evict t key vc c)
      c c

(* Publish the master's state as the next immutable version carrying
   [c].  Caller holds [write_lock], so version numbers are gapless and
   the swapped view is never older than a concurrent publisher's. *)
let publish t c =
  Atomic.set t.current (view_of ~version:(version t + 1) t.master c);
  ignore (Atomic.fetch_and_add t.invalidations 1 : int)

let notify t m =
  match t.on_mutation with Some f -> f m | None -> ()

(* Log an applied mutation, then publish the view it produces.  The
   observer runs {e before} the publish, so a logged mutation is durable
   before any reader can observe it. *)
let commit t m =
  notify t m;
  publish t (next_cache t (Atomic.get (current t).cache) m)

(* Run a mutating store operation and commit it only if it succeeded —
   a raising [define] etc. leaves the KB, the log and the published
   view unchanged. *)
let mutating t m f =
  locked t (fun () ->
      let r = f t.master in
      commit t m;
      r)

let define t ?(isa = []) name rules =
  mutating t
    (Store.Define { name; isa; rules })
    (fun s -> Store.define s ~isa name rules)

let load t src = mutating t (Store.Load { src }) (fun s -> Store.load s src)

let add_rule t ~obj r =
  mutating t (Store.Add_rule { obj; rule = r }) (fun s ->
      Store.add_rule s ~obj r)

let add_rule_src t ~obj src = add_rule t ~obj (Lang.Parser.parse_rule src)
let remove_rule t ~obj r =
  locked t (fun () ->
      let removed = Store.remove_rule t.master ~obj r in
      if removed then commit t (Store.Remove_rule { obj; rule = r });
      removed)

let new_version t ?rules name =
  mutating t
    (Store.New_version { name; rules })
    (fun s -> Store.new_version s ?rules name)

let set_preference t ~rule ~over =
  mutating t
    (Store.Set_preference { rule; over })
    (fun s -> Store.set_preference s ~rule ~over)

(* like [remove_rule]: only a pair that was actually present is logged
   and published *)
let clear_preference t ~rule ~over =
  locked t (fun () ->
      let removed = Store.clear_preference t.master ~rule ~over in
      if removed then commit t (Store.Clear_preference { rule; over });
      removed)

(* Replication replay: apply a shipped mutation through the same
   observer-then-publish path the named operations use, so the replica's
   own WAL and published view stay in lockstep with its store.  The
   delta repair runs per record, so followers repair derived state the
   same way the primary did. *)
let apply t m = mutating t m (fun s -> Store.apply s m)

(* A whole shipped batch under one lock acquisition and one publish —
   the per-record observer calls (WAL appends) still happen in order,
   so durability ordering is exactly as if [apply] had run per record,
   but the store is copied once per batch instead of once per record.
   The carried cache is folded through every record's delta before
   the single publish.  A record that raises publishes the prefix that
   did apply (each of those records is already in the observer's
   log). *)
let apply_batch t ms =
  match ms with
  | [] -> ()
  | ms ->
    locked t (fun () ->
        let cache = ref (Atomic.get (current t).cache) in
        let applied = ref 0 in
        match
          List.iter
            (fun m ->
              Store.apply t.master m;
              notify t m;
              cache := next_cache t !cache m;
              incr applied)
            ms
        with
        | () -> publish t !cache
        | exception e ->
          if !applied > 0 then publish t !cache;
          raise e)

let invalidate t = locked t (fun () -> publish t KeyMap.empty)

(* ------------------------------------------------------------------ *)
(* Read-only views                                                     *)
(* ------------------------------------------------------------------ *)

let objects t = Store.objects (current t).vstore
let parents t name = Store.parents (current t).vstore name
let rules t name = Store.rules (current t).vstore name
let versions t name = Store.versions (current t).vstore name
let preferences t = Store.preferences (current t).vstore
let to_program t = Store.to_program (current t).vstore
let to_source t = Store.to_source (current t).vstore

(* ------------------------------------------------------------------ *)
(* Memoized queries                                                    *)
(* ------------------------------------------------------------------ *)

let record_hit t = ignore (Atomic.fetch_and_add t.hits 1 : int)
let record_miss t = ignore (Atomic.fetch_and_add t.misses 1 : int)

let record_of c key =
  Option.value (KeyMap.find_opt key c) ~default:empty_vcache

let find v key = record_of (Atomic.get v.cache) key

(* Lock-free update of one record: [f] returns [None] when what it
   would add is already there (somebody else computed it first), else
   the new record; a lost CAS retries on the fresh map.  The maps are
   persistent, so a reader holding an older map still sees a complete,
   valid index. *)
let rec update v key f =
  let cur = Atomic.get v.cache in
  match f (record_of cur key) with
  | None -> ()
  | Some vc' ->
    if not (Atomic.compare_and_set v.cache cur (KeyMap.add key vc' cur)) then
      update v key f

let cache_result v key op e =
  update v key (fun vc ->
      if OpMap.mem op vc.results then None
      else Some { vc with results = OpMap.add op e vc.results })

(* Ground a record's program from scratch in the pinned view; a
   preferred record's is one compilation of the viewpoint's preference
   spec, whose size the gauges track. *)
let ground ?budget t v (obj, prog) =
  match prog with
  | Own ->
    (* surface Store's unknown-object diagnostic before grounding *)
    ignore (Store.rules v.vstore obj : Logic.Rule.t list);
    let program = Store.to_program v.vstore in
    Inc.Reground.ground ?budget program
      (Ordered.Program.component_id_exn program obj)
  | Prefer ->
    let c = Prefer.Compile.compile (Store.prefer_spec v.vstore ~obj) in
    let st = Inc.Reground.ground ?budget c.program c.viewpoint in
    (match t.metrics with
    | Some m ->
      M.incr m "prefer_compilations";
      let s = Ordered.Gop.stats st.Inc.Reground.gop in
      M.gauge_max m "prefer_gop_atoms" s.Ordered.Gop.atoms;
      M.gauge_max m "prefer_gop_rules" s.Ordered.Gop.rules
    | None -> ());
    st

(* The grounding (with provenance) of one record in the pinned view.
   Internal: does not move the hit/miss counters — those count logical
   results, and one result computation may touch the grounding several
   times. *)
let gop_state ?budget t v key =
  match (find v key).gstate with
  | Some st -> st
  | None ->
    let st = ground ?budget t v key in
    update v key (fun vc ->
        if Option.is_some vc.gstate then None
        else Some { vc with gstate = Some st });
    st

let gop ?budget t ~obj =
  let v = current t in
  (match (find v (obj, Own)).gstate with
  | Some _ -> record_hit t
  | None -> record_miss t);
  (gop_state ?budget t v (obj, Own)).Inc.Reground.gop

(* Look up (key, op) in the pinned view; on a miss run [compute] against
   that same view and cache its result.  (Enumerations, which may come
   back partial, cache only complete results; see [enumerate].) *)
let lookup t key op ~compute =
  let v = current t in
  match OpMap.find_opt op (find v key).results with
  | Some e ->
    record_hit t;
    e
  | None ->
    record_miss t;
    let e = compute v in
    cache_result v key op e;
    e

(* The cached least model: codes over the atom ids of its grounding. *)
let least ?budget t ~obj =
  let key = (obj, Own) in
  match
    lookup t key Least
      ~compute:(fun v ->
        let g = (gop_state ?budget t v key).Inc.Reground.gop in
        E_least (g, Ordered.Parts.least (Ordered.Vfix.lfp ?budget g)))
  with
  | E_least (g, least) -> (g, least)
  | _ -> assert false

let least_model ?budget t ~obj =
  let g, least = least ?budget t ~obj in
  Ordered.Parts.least_interp g least

let query ?budget t ~obj l =
  if not (Logic.Literal.is_ground l) then
    invalid_arg "Kb.query: literal must be ground";
  let g, least = least ?budget t ~obj in
  Ordered.Gop.Values.value_lit g (Ordered.Parts.least_codes least) l

(* Enumerations are anytime: only a complete result is cached, and a
   hit returns it as [Complete] with the entry's rendering slot; a
   partial result has no slot.  A preferred answer served from a cached
   compile or result (a record with results has its grounding) counts
   one [prefer_cache_hits]. *)
let enumerate t key op run =
  let v = current t in
  let vc = find v key in
  (match key with
  | _, Prefer when Option.is_some vc.gstate ->
    bump_metric t "prefer_cache_hits"
  | _ -> ());
  match OpMap.find_opt op vc.results with
  | Some (E_models (ms, slot)) ->
    record_hit t;
    (B.Complete ms, Some slot)
  | Some _ -> assert false
  | None ->
    record_miss t;
    let r = run v in
    if B.is_complete r then begin
      let slot = Atomic.make None in
      cache_result v key op (E_models (B.value r, slot));
      (r, Some slot)
    end
    else (r, None)

(* Stable models from the record's carried part lists and cached least
   model (when it is over this very grounding): the kernel's root state
   is built only if some part has to be searched.  The lists this
   listing leaves replace the record's, a partial listing's included
   (every entry is a certified prefix). *)
let stable_op ?limit ?budget ?stats t v key g =
  let vc = find v key in
  let least =
    match OpMap.find_opt Least vc.results with
    | Some (E_least (g', least)) when g' == g -> Some least
    | _ -> None
  in
  let carry = Ordered.Parts.carry vc.parts in
  let r =
    Solve.Kernel.stable_models ?limit ?budget ?stats ?least ~carry g
  in
  (match t.metrics with
  | Some m ->
    M.add m "part_hits" carry.hits;
    M.add m "part_searches" carry.searches
  | None -> ());
  update v key (fun vc -> Some { vc with parts = carry.table });
  r

(* Plain and preferred enumerations share one path: a preferred answer
   is the stable-model listing of the viewpoint's compiled preference
   program, cached in its own record. *)
let models_op kind ?limit ?budget ?stats t ~obj =
  let key, kind =
    match kind with
    | `Preferred -> ((obj, Prefer), `Stable)
    | (`Stable | `Af) as kind -> ((obj, Own), kind)
  in
  enumerate t key (Models { kind; limit }) (fun v ->
      let g = (gop_state ?budget t v key).Inc.Reground.gop in
      match kind with
      | `Stable -> stable_op ?limit ?budget ?stats t v key g
      | `Af ->
        Solve.Kernel.assumption_free_models ?limit ?budget ?stats g)

let models kind ?limit ?budget ?stats t ~obj =
  fst (models_op kind ?limit ?budget ?stats t ~obj)

let stable_models = models `Stable
let assumption_free_models = models `Af
let preferred_models = models `Preferred

let answer kind ~render ?limit ?budget ?stats t ~obj =
  let r, slot = models_op kind ?limit ?budget ?stats t ~obj in
  match slot with
  | None -> (r, render (B.value r))
  | Some slot -> (
    match Atomic.get slot with
    | Some rendered -> (r, rendered)
    | None ->
      let rendered = render (B.value r) in
      Atomic.set slot (Some rendered);
      (r, rendered))

let explain t ~obj l =
  let key = (obj, Own) in
  match
    lookup t key (Explained (Logic.Literal.to_string l))
      ~compute:(fun v ->
        E_explain
          (Ordered.Explain.explain (gop_state t v key).Inc.Reground.gop l))
  with
  | E_explain e -> e
  | _ -> assert false
