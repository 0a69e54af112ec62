(* Named counters over lock-free cells.  Each name maps to an
   [int Atomic.t]; the registry itself (a sorted association list) is
   only rebuilt when a new name first appears, under a mutex, so the
   hot path — bumping an existing counter — is a single atomic RMW and
   readers never block writers.  The map is tiny (a dozen names), so a
   sorted association list keeps snapshots allocation-light and already
   ordered. *)

type t = {
  lock : Mutex.t;  (* serializes registration of new names only *)
  mutable entries : (string * int Atomic.t) list;  (* sorted by name *)
}

let create () = { lock = Mutex.create (); entries = [] }

(* The entries field is only ever replaced by a list containing the same
   cells plus one, so an unlocked read sees a valid (possibly slightly
   stale) registry; a name missed here is re-checked under the lock. *)
let find m name = List.assoc_opt name m.entries

let rec insert name cell = function
  | [] -> [ (name, cell) ]
  | (n, _) :: _ as l when String.compare name n < 0 -> (name, cell) :: l
  | (n, v) :: rest ->
    if String.equal name n then (n, v) :: rest
    else (n, v) :: insert name cell rest

let cell m name =
  match find m name with
  | Some c -> c
  | None ->
    Mutex.lock m.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m.lock)
      (fun () ->
        (* another thread may have registered it since the racy read *)
        match find m name with
        | Some c -> c
        | None ->
          let c = Atomic.make 0 in
          m.entries <- insert name c m.entries;
          c)

let add m name n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  ignore (Atomic.fetch_and_add (cell m name) n : int)

let incr m name = add m name 1

let gauge_max m name level =
  let c = cell m name in
  let rec raise_to () =
    let cur = Atomic.get c in
    if level > cur && not (Atomic.compare_and_set c cur level) then raise_to ()
  in
  raise_to ()

let get m name = match find m name with Some c -> Atomic.get c | None -> 0

let snapshot m = List.map (fun (n, c) -> (n, Atomic.get c)) m.entries
