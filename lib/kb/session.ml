(* Memoizing sessions over a Store, with lock-free snapshot reads: the
   master store is mutated under a write lock, and every successful
   mutation publishes an immutable [view] — (version, store copy,
   caches) — through one atomic reference.  Readers pin the
   current view with a single [Atomic.get] and never take a lock.

   Since PR 10 a mutation no longer flushes the caches wholesale: the
   published caches are carried forward through delta eviction — only
   entries whose object cone can see the mutated object are touched, and
   for those the grounding and least model are {e repaired} through
   [Inc] (incremental re-grounding + fixpoint repair) rather than
   dropped whenever the repair is provably exact.  Every fallback to
   recompute is counted, never silent.  See session.mli and
   docs/INCREMENTAL.md for the contract. *)

module B = Ordered.Budget
module M = Governor.Metrics

type op =
  | Least
  | Models of { kind : [ `Stable | `Af ]; limit : int option }
  | Preferred of { limit : int option }
  | Explained of string  (* printed literal *)

type entry =
  | E_interp of Logic.Interp.t
  | E_models of Logic.Interp.t list
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

module Key = struct
  type t = string * op  (* obj, op *)

  let compare = Stdlib.compare
end

module KeyMap = Map.Make (Key)
module StrMap = Map.Make (String)
module StrSet = Set.Make (String)

(* One published KB version.  [vstore] is a private copy nothing ever
   mutates, so any number of readers may ground and solve against it
   concurrently; the result caches are immutable maps swapped by CAS
   (a racing insert retries on the fresh map, a duplicate insert is
   dropped — either way readers only ever see complete maps). *)
type view = {
  version : int;
  vstore : Store.t;
  results : entry KeyMap.t Atomic.t;
  vgops : Inc.Reground.state StrMap.t Atomic.t;
      (** groundings with provenance, keyed by viewpoint object *)
  vpgops : Ordered.Gop.t StrMap.t Atomic.t;
      (** compiled preference groundings, keyed like [vgops] *)
  vflats : Solve.Flat.t StrMap.t Atomic.t;
      (** compiled flat-array programs for [vgops] entries *)
  vpflats : Solve.Flat.t StrMap.t Atomic.t;
      (** compiled flat-array programs for [vpgops] entries *)
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
  mutable eviction : [ `Delta | `Wholesale ];
  mutable metrics : M.t option;
  mutable on_mutation : (Store.mutation -> unit) option;
}

let view_of ~version store =
  { version;
    vstore = Store.copy store;
    results = Atomic.make KeyMap.empty;
    vgops = Atomic.make StrMap.empty;
    vpgops = Atomic.make StrMap.empty;
    vflats = Atomic.make StrMap.empty;
    vpflats = Atomic.make StrMap.empty
  }

let of_store store =
  { master = store;
    write_lock = Mutex.create ();
    current = Atomic.make (view_of ~version:0 store);
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    invalidations = Atomic.make 0;
    repairs = Atomic.make 0;
    fallbacks = Atomic.make 0;
    evictions = Atomic.make 0;
    kept = Atomic.make 0;
    eviction = `Delta;
    metrics = None;
    on_mutation = None
  }

let create () = of_store (Store.create ())

let store t = t.master
let on_mutation t f = t.on_mutation <- Some f
let current t = Atomic.get t.current
let version t = (current t).version
let eviction t = t.eviction

let inc_counter_names =
  [ "inc_repairs"; "inc_fallbacks"; "inc_evictions"; "cache_kept";
    "flat_compiles"; "flat_cache_hits" ]

(* Registering the counters up front keeps the server's [stats] output
   deterministic: the names are present (at 0) before the first
   mutation or compiled enumeration. *)
let use_metrics t m =
  t.metrics <- Some m;
  List.iter (fun n -> M.add m n 0) inc_counter_names

let counters t =
  { hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    invalidations = Atomic.get t.invalidations;
    entries = KeyMap.cardinal (Atomic.get (current t).results);
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

(* The carried caches of a view as plain maps, while the write lock
   keeps new inserts from racing the carry-forward. *)
type caches = {
  c_results : entry KeyMap.t;
  c_gstates : Inc.Reground.state StrMap.t;
  c_pgops : Ordered.Gop.t StrMap.t;
  c_flats : Solve.Flat.t StrMap.t;
  c_pflats : Solve.Flat.t StrMap.t;
}

let empty_caches =
  { c_results = KeyMap.empty;
    c_gstates = StrMap.empty;
    c_pgops = StrMap.empty;
    c_flats = StrMap.empty;
    c_pflats = StrMap.empty
  }

let caches_of_view v =
  { c_results = Atomic.get v.results;
    c_gstates = Atomic.get v.vgops;
    c_pgops = Atomic.get v.vpgops;
    c_flats = Atomic.get v.vflats;
    c_pflats = Atomic.get v.vpflats
  }

(* Every object some cache knows about. *)
let viewpoints c =
  let add m acc = StrMap.fold (fun k _ acc -> StrSet.add k acc) m acc in
  KeyMap.fold (fun (o, _) _ acc -> StrSet.add o acc) c.c_results StrSet.empty
  |> add c.c_gstates |> add c.c_pgops |> add c.c_flats |> add c.c_pflats

(* Does [viewpoint]'s view [C*] contain [obj]?  The view walks the isa
   chain upward, so the cone of a viewpoint is itself plus its
   transitive parents. *)
let sees store ~viewpoint ~obj =
  let rec go seen = function
    | [] -> false
    | x :: rest ->
      if String.equal x obj then true
      else if StrSet.mem x seen then go seen rest
      else
        go (StrSet.add x seen)
          (List.rev_append (Store.parents store x) rest)
  in
  go StrSet.empty [ viewpoint ]

let is_preferred_key ((_, op) : Key.t) = match op with Preferred _ -> true | _ -> false
let key_of_obj w ((o, _) : Key.t) = String.equal o w

let count_keys p m = KeyMap.cardinal (KeyMap.filter (fun k _ -> p k) m)

(* Repair or evict one viewpoint's cached state after a single-rule
   mutation of [obj] that this viewpoint can see.  The compiled
   preference program derives from the schema view, which changed, so
   preference caches are always dropped here; plain entries survive
   whenever the repair is provably exact. *)
let repair_viewpoint t ~program c w =
  let mine k = key_of_obj w k in
  let plain k = mine k && not (is_preferred_key k) in
  let drop_plain c =
    note t t.evictions "inc_evictions" (count_keys plain c.c_results);
    { c with
      c_results = KeyMap.filter (fun k _ -> not (plain k)) c.c_results;
      c_gstates = StrMap.remove w c.c_gstates;
      c_flats = StrMap.remove w c.c_flats
    }
  in
  (* preference caches of this viewpoint go regardless *)
  note t t.evictions "inc_evictions"
    (count_keys (fun k -> mine k && is_preferred_key k) c.c_results);
  let c =
    { c with
      c_results =
        KeyMap.filter (fun k _ -> not (mine k && is_preferred_key k)) c.c_results;
      c_pgops = StrMap.remove w c.c_pgops;
      c_pflats = StrMap.remove w c.c_pflats
    }
  in
  match StrMap.find_opt w c.c_gstates with
  | None -> drop_plain c
  | Some st -> (
    match Inc.Reground.reground st ~program:(Lazy.force program) with
    | Ok (st', d) when Inc.Delta.is_empty d ->
      (* the mutation did not change this viewpoint's grounding at all:
         every plain entry (and the compiled flat) is still exact *)
      note t t.kept "cache_kept" (count_keys plain c.c_results);
      { c with c_gstates = StrMap.add w st' c.c_gstates }
    | Ok (st', d) ->
      note t t.repairs "inc_repairs" 1;
      let c =
        { c with
          c_gstates = StrMap.add w st' c.c_gstates;
          c_flats = StrMap.remove w c.c_flats
        }
      in
      let c_results =
        KeyMap.filter_map
          (fun ((_, op) as k) e ->
            if not (plain k) then Some e
            else
              match (op, e) with
              | Least, E_interp prev -> (
                match
                  Inc.Repair.least_model ~previous:prev st'.Inc.Reground.gop d
                with
                | Inc.Repair.Repaired i ->
                  note t t.repairs "inc_repairs" 1;
                  Some (E_interp i)
                | Inc.Repair.Recomputed i ->
                  note t t.fallbacks "inc_fallbacks" 1;
                  Some (E_interp i)
                | Inc.Repair.Unchanged -> Some e)
              | _ ->
                note t t.evictions "inc_evictions" 1;
                None)
          c.c_results
      in
      { c with c_results }
    | Error _ ->
      note t t.fallbacks "inc_fallbacks" 1;
      drop_plain c
    | exception _ ->
      (* a repair failure must never fail the write: evict and recount *)
      note t t.fallbacks "inc_fallbacks" 1;
      drop_plain c)

(* Transform the carried caches by one applied mutation.  Caller holds
   [write_lock] and has already applied [m] to [t.master]. *)
let next_caches t (c : caches) (m : Store.mutation) =
  match t.eviction with
  | `Wholesale ->
    note t t.evictions "inc_evictions" (KeyMap.cardinal c.c_results);
    empty_caches
  | `Delta -> (
    match m with
    | Store.Define _ | Store.New_version _ ->
      (* a fresh object: existing views cannot see it (isa edges point
         at pre-existing parents), and component numbering of existing
         objects is stable *)
      note t t.kept "cache_kept" (KeyMap.cardinal c.c_results);
      c
    | Store.Load _ ->
      (* load may rewire parents of existing objects and add
         preferences: no per-object cone is sound *)
      note t t.evictions "inc_evictions" (KeyMap.cardinal c.c_results);
      empty_caches
    | Store.Set_preference _ | Store.Clear_preference _ ->
      (* rules and groundings are untouched; only preference-derived
         state can change *)
      note t t.evictions "inc_evictions"
        (count_keys is_preferred_key c.c_results);
      note t t.kept "cache_kept"
        (count_keys (fun k -> not (is_preferred_key k)) c.c_results);
      { c with
        c_results = KeyMap.filter (fun k _ -> not (is_preferred_key k)) c.c_results;
        c_pgops = StrMap.empty;
        c_pflats = StrMap.empty
      }
    | Store.Add_rule { obj; _ } | Store.Remove_rule { obj; _ } ->
      let program = lazy (Store.to_program t.master) in
      StrSet.fold
        (fun w c ->
          if sees t.master ~viewpoint:w ~obj then
            repair_viewpoint t ~program c w
          else begin
            note t t.kept "cache_kept" (count_keys (key_of_obj w) c.c_results);
            c
          end)
        (viewpoints c) c)

(* Publish the master's state as the next immutable version carrying
   [c].  Caller holds [write_lock], so version numbers are gapless and
   the swapped view is never older than a concurrent publisher's. *)
let publish_caches t c =
  let v = current t in
  Atomic.set t.current
    { version = v.version + 1;
      vstore = Store.copy t.master;
      results = Atomic.make c.c_results;
      vgops = Atomic.make c.c_gstates;
      vpgops = Atomic.make c.c_pgops;
      vflats = Atomic.make c.c_flats;
      vpflats = Atomic.make c.c_pflats
    };
  ignore (Atomic.fetch_and_add t.invalidations 1 : int)

let set_eviction t mode = locked t (fun () -> t.eviction <- mode)

(* Run a mutating store operation; notify the observer (the write-ahead
   log, when persistence is wired) and publish only if it succeeded — a
   raising [define] etc. leaves the KB, the log and the published view
   unchanged.  The observer runs {e before} the publish, so a logged
   mutation is durable before any reader can observe it. *)
let mutating t m f =
  locked t (fun () ->
      let r = f t.master in
      (match t.on_mutation with Some notify -> notify m | None -> ());
      publish_caches t (next_caches t (caches_of_view (current t)) m);
      r)

let define t ?(isa = []) name rules =
  mutating t
    (Store.Define { name; isa; rules })
    (fun s -> Store.define s ~isa name rules)

let define_src t ?isa name src =
  define t ?isa name (Lang.Parser.parse_rules src)

let load t src = mutating t (Store.Load { src }) (fun s -> Store.load s src)

let add_rule t ~obj r =
  mutating t (Store.Add_rule { obj; rule = r }) (fun s ->
      Store.add_rule s ~obj r)

let add_rule_src t ~obj src = add_rule t ~obj (Lang.Parser.parse_rule src)
let add_fact t ~obj l = add_rule t ~obj (Logic.Rule.fact l)

let remove_rule t ~obj r =
  locked t (fun () ->
      let removed = Store.remove_rule t.master ~obj r in
      if removed then begin
        let m = Store.Remove_rule { obj; rule = r } in
        (match t.on_mutation with
        | Some notify -> notify m
        | None -> ());
        publish_caches t (next_caches t (caches_of_view (current t)) m)
      end;
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
      if removed then begin
        let m = Store.Clear_preference { rule; over } in
        (match t.on_mutation with
        | Some notify -> notify m
        | None -> ());
        publish_caches t (next_caches t (caches_of_view (current t)) m)
      end;
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
   The carried caches are folded through every record's delta before
   the single publish.  A record that raises publishes the prefix that
   did apply (each of those records is already in the observer's
   log). *)
let apply_batch t ms =
  match ms with
  | [] -> ()
  | ms ->
    locked t (fun () ->
        let caches = ref (caches_of_view (current t)) in
        let applied = ref 0 in
        match
          List.iter
            (fun m ->
              Store.apply t.master m;
              (match t.on_mutation with
              | Some notify -> notify m
              | None -> ());
              caches := next_caches t !caches m;
              incr applied)
            ms
        with
        | () -> publish_caches t !caches
        | exception e ->
          if !applied > 0 then publish_caches t !caches;
          raise e)

let invalidate t = locked t (fun () -> publish_caches t empty_caches)

(* ------------------------------------------------------------------ *)
(* Read-only views                                                     *)
(* ------------------------------------------------------------------ *)

let objects t = Store.objects (current t).vstore
let parents t name = Store.parents (current t).vstore name
let rules t name = Store.rules (current t).vstore name
let latest_version t name = Store.latest_version (current t).vstore name
let versions t name = Store.versions (current t).vstore name
let preferences t = Store.preferences (current t).vstore

(* ------------------------------------------------------------------ *)
(* Memoized queries                                                    *)
(* ------------------------------------------------------------------ *)

let record_hit t = ignore (Atomic.fetch_and_add t.hits 1 : int)
let record_miss t = ignore (Atomic.fetch_and_add t.misses 1 : int)

(* Lock-free insert: retry the CAS against the freshest map; drop the
   duplicate if somebody else cached the same key first.  The maps are
   persistent, so a reader holding an older map still sees a complete,
   valid index. *)
let rec cas_add cell ~mem ~add key v =
  let cur = Atomic.get cell in
  if mem key cur then ()
  else if not (Atomic.compare_and_set cell cur (add key v cur)) then
    cas_add cell ~mem ~add key v

let cache_result v key e =
  cas_add v.results ~mem:KeyMap.mem ~add:KeyMap.add key e

(* The grounding (with provenance) of one viewpoint in the pinned view.
   Internal: does not move the hit/miss counters — those count logical
   results, and one result computation may touch the grounding several
   times. *)
let gop_state ?budget v ~obj =
  match StrMap.find_opt obj (Atomic.get v.vgops) with
  | Some st -> st
  | None ->
    (* surface Store's unknown-object diagnostic before grounding *)
    ignore (Store.rules v.vstore obj : Logic.Rule.t list);
    let prog = Store.to_program v.vstore in
    let st =
      Inc.Reground.ground ?budget prog
        (Ordered.Program.component_id_exn prog obj)
    in
    cas_add v.vgops ~mem:StrMap.mem ~add:StrMap.add obj st;
    st

let gop ?budget t ~obj =
  let v = current t in
  (match StrMap.find_opt obj (Atomic.get v.vgops) with
  | Some _ -> record_hit t
  | None -> record_miss t);
  (gop_state ?budget v ~obj).Inc.Reground.gop

(* Compiled flat program for a grounding, cached per viewpoint in the
   pinned view and invalidated through the same delta eviction. *)
let flat_of t cell ~obj g =
  match StrMap.find_opt obj (Atomic.get cell) with
  | Some f ->
    bump_metric t "flat_cache_hits";
    f
  | None ->
    let f = Solve.Flat.compile g in
    bump_metric t "flat_compiles";
    cas_add cell ~mem:StrMap.mem ~add:StrMap.add obj f;
    f

(* Look up (obj, op) in the pinned view; on a miss run [compute] against
   that same view, store the entry only when [cache] says the result is
   complete. *)
let lookup t ~obj op ~compute ~cache =
  let v = current t in
  let key = (obj, op) in
  match KeyMap.find_opt key (Atomic.get v.results) with
  | Some e ->
    record_hit t;
    e
  | None ->
    record_miss t;
    let e = compute v in
    if cache e then cache_result v key e;
    e

let least_model ?budget t ~obj =
  match
    lookup t ~obj Least
      ~compute:(fun v ->
        E_interp
          (Ordered.Vfix.least_model ?budget
             (gop_state ?budget v ~obj).Inc.Reground.gop))
      ~cache:(fun _ -> true)
  with
  | E_interp i -> i
  | _ -> assert false

let query ?budget t ~obj l =
  if not (Logic.Literal.is_ground l) then
    invalid_arg "Kb.Session.query: literal must be ground";
  Logic.Interp.value_lit (least_model ?budget t ~obj) l

let query_src ?budget t ~obj src =
  query ?budget t ~obj (Lang.Parser.parse_literal src)

let models kind ?limit ?budget ?stats t ~obj =
  let v = current t in
  let key = (obj, Models { kind; limit }) in
  match KeyMap.find_opt key (Atomic.get v.results) with
  | Some (E_models ms) ->
    record_hit t;
    B.Complete ms
  | Some _ -> assert false
  | None ->
    record_miss t;
    let g = (gop_state ?budget v ~obj).Inc.Reground.gop in
    let flat = flat_of t v.vflats ~obj g in
    let r =
      match kind with
      | `Stable -> Solve.Kernel.stable_models ?limit ?budget ?stats ~flat g
      | `Af -> Solve.Kernel.assumption_free_models ?limit ?budget ?stats ~flat g
    in
    if B.is_complete r then cache_result v key (E_models (B.value r));
    r

let stable_models ?limit ?budget ?stats t ~obj =
  models `Stable ?limit ?budget ?stats t ~obj

let assumption_free_models ?limit ?budget ?stats t ~obj =
  models `Af ?limit ?budget ?stats t ~obj

(* ------------------------------------------------------------------ *)
(* Preferred models                                                    *)
(* ------------------------------------------------------------------ *)

let bump metrics name =
  match metrics with Some m -> M.incr m name | None -> ()

(* Compiled-grounding lookup in the pinned view.  A miss is one actual
   compilation+grounding; the observability counters distinguish those
   from cache hits, and the gauges track the size blow-up the per-rule
   component splitting costs. *)
let prefer_gop_of ?budget ?metrics v ~obj =
  match StrMap.find_opt obj (Atomic.get v.vpgops) with
  | Some g ->
    bump metrics "prefer_cache_hits";
    g
  | None ->
    let g = Store.prefer_gop ?budget v.vstore ~obj in
    (match metrics with
    | Some m ->
      M.incr m "prefer_compilations";
      let s = Ordered.Gop.stats g in
      M.gauge_max m "prefer_gop_atoms" s.Ordered.Gop.atoms;
      M.gauge_max m "prefer_gop_rules" s.Ordered.Gop.rules
    | None -> ());
    cas_add v.vpgops ~mem:StrMap.mem ~add:StrMap.add obj g;
    g

let prefer_gop ?budget ?metrics t ~obj =
  let v = current t in
  (match StrMap.find_opt obj (Atomic.get v.vpgops) with
  | Some _ -> record_hit t
  | None -> record_miss t);
  prefer_gop_of ?budget ?metrics v ~obj

let preferred_models ?limit ?budget ?stats ?metrics t ~obj =
  let v = current t in
  let key = (obj, Preferred { limit }) in
  match KeyMap.find_opt key (Atomic.get v.results) with
  | Some (E_models ms) ->
    record_hit t;
    bump metrics "prefer_cache_hits";
    B.Complete ms
  | Some _ -> assert false
  | None ->
    record_miss t;
    let g = prefer_gop_of ?budget ?metrics v ~obj in
    let r =
      Solve.Kernel.stable_models ?limit ?budget ?stats
        ~flat:(flat_of t v.vpflats ~obj g)
        g
    in
    if B.is_complete r then cache_result v key (E_models (B.value r));
    r

let explain t ~obj l =
  match
    lookup t ~obj (Explained (Logic.Literal.to_string l))
      ~compute:(fun v ->
        E_explain
          (Ordered.Explain.explain (gop_state v ~obj).Inc.Reground.gop l))
      ~cache:(fun _ -> true)
  with
  | E_explain e -> e
  | _ -> assert false
