(* Randomized concurrent stress with a linearizability oracle.

   N client threads fire a recorded mix of writes (each client appends
   its own unique facts f(client,k) to one shared object) and reads
   (stable-model enumerations, alternating plain and batched frames)
   at a live in-process daemon.  The workload is add-only, so a
   linearization exists iff:

   - every observed model is a {e union of per-client prefixes}
     (f(i,k) present implies f(i,1..k-1) present — client i issued its
     writes sequentially);
   - the observed models form a chain under set inclusion (all reads
     saw some point of one total write order);
   - each connection's reads are monotone along that chain, and include
     every write the same connection had already been acknowledged
     (read-your-writes);
   - the KB version a connection observes never decreases.

   Finally the whole write history is replayed single-threaded through
   a fresh [Kb.Session] and must reproduce the daemon's final model. *)

module W = Server.Wire

let clients = 4
let ops_per_client = 28

(* deterministic per-thread pseudo-randomness (no global state) *)
let lcg seed =
  let state = ref (seed land 0x3FFFFFFF) in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state

module Fact = struct
  type t = int * int (* client, k *)

  let compare = compare
end

module FactSet = Set.Make (Fact)

(* A model is a list of literal strings; keep the f(_,_) facts. *)
let facts_of_model = function
  | W.List lits ->
    List.fold_left
      (fun acc l ->
        match l with
        | W.String s -> (
          match Scanf.sscanf_opt s "f(%d, %d)" (fun i k -> (i, k)) with
          | Some f -> FactSet.add f acc
          | None -> acc)
        | _ -> acc)
      FactSet.empty lits
  | _ -> FactSet.empty

type event =
  | Wrote of int (* k: the client's k-th write was acknowledged *)
  | Saw of { writes_acked : int; version : int; facts : FactSet.t }

let with_daemon f =
  Helpers.with_daemon ~workers:4 (fun d -> f (Server.Daemon.address d))

let request_exn = Helpers.request_exn

let ok_exn what j =
  match W.member "status" j with
  | Some (W.String "ok") -> j
  | _ -> Alcotest.failf "%s: %s" what (W.to_string j)

let models_line = {|{"op":"models","obj":"kb","kind":"stable"}|}
let stats_line = {|{"op":"stats"}|}

let invalidations j =
  match W.member "cache" j with
  | Some cache -> (
    match W.member "invalidations" cache with Some (W.Int n) -> n | _ -> -1)
  | None -> -1

(* One client thread: runs its op schedule, records its history. *)
let client_thread address i =
  let rand = lcg ((i * 2654435761) + 1) in
  let c =
    match Server.Client.connect ~retry:5. address with
    | Ok c -> c
    | Error e -> failwith ("connect: " ^ e)
  in
  let history = ref [] in
  let writes = ref 0 in
  for op = 1 to ops_per_client do
    if rand () mod 3 = 0 then begin
      incr writes;
      let line =
        Printf.sprintf {|{"op":"add_rule","obj":"kb","rule":"f(%d,%d)."}|} i
          !writes
      in
      ignore (ok_exn "write" (request_exn c line) : W.json);
      history := Wrote !writes :: !history
    end
    else begin
      (* alternate plain frames and batched [models; stats] frames so the
         batch path is exercised under contention too *)
      let model, version =
        if op mod 2 = 0 then begin
          let m = ok_exn "models" (request_exn c models_line) in
          let s = ok_exn "stats" (request_exn c stats_line) in
          (m, invalidations s)
        end
        else begin
          let envelope =
            ok_exn "batch"
              (request_exn c
                 (Printf.sprintf {|{"op":"batch","requests":[%s,%s]}|}
                    models_line stats_line))
          in
          match W.member "responses" envelope with
          | Some (W.List [ m; s ]) ->
            (ok_exn "batched models" m, invalidations (ok_exn "batched stats" s))
          | _ -> failwith ("bad envelope: " ^ W.to_string envelope)
        end
      in
      let facts =
        match W.member "models" model with
        | Some (W.List [ m ]) -> facts_of_model m
        | _ -> failwith ("expected one stable model: " ^ W.to_string model)
      in
      history := Saw { writes_acked = !writes; version; facts } :: !history
    end
  done;
  Server.Client.close c;
  (!writes, List.rev !history)

let pp_set s =
  String.concat ","
    (List.map (fun (i, k) -> Printf.sprintf "f(%d,%d)" i k) (FactSet.elements s))

let check_prefix_closure set =
  for i = 1 to clients do
    let ks =
      List.sort compare
        (List.filter_map
           (fun (j, k) -> if j = i then Some k else None)
           (FactSet.elements set))
    in
    if ks <> List.init (List.length ks) (fun n -> n + 1) then
      Alcotest.failf "client %d's writes not a prefix in {%s}" i (pp_set set)
  done

let test_concurrent_history () =
  with_daemon @@ fun address ->
  let setup = Helpers.connect_exn address in
  ignore
    (ok_exn "define"
       (request_exn setup {|{"op":"define","name":"kb","rules":"seed."}|})
      : W.json);
  let results = Array.make clients (Error "not run") in
  let threads =
    List.init clients (fun idx ->
        Thread.create
          (fun () ->
            let i = idx + 1 in
            results.(idx) <-
              (try Ok (client_thread address i)
               with e -> Error (Printexc.to_string e)))
          ())
  in
  List.iter Thread.join threads;
  let histories =
    Array.to_list
      (Array.mapi
         (fun idx -> function
           | Ok h -> h
           | Error e -> Alcotest.failf "client %d failed: %s" (idx + 1) e)
         results)
  in
  (* --- oracle ------------------------------------------------------ *)
  (* per-connection checks: monotone versions, monotone models,
     read-your-writes *)
  List.iteri
    (fun idx (_, history) ->
      let i = idx + 1 in
      let last_version = ref (-1) and last_facts = ref FactSet.empty in
      List.iter
        (function
          | Wrote _ -> ()
          | Saw { writes_acked; version; facts } ->
            if version < !last_version then
              Alcotest.failf "client %d saw version go backwards: %d -> %d" i
                !last_version version;
            last_version := max !last_version version;
            if not (FactSet.subset !last_facts facts) then
              Alcotest.failf "client %d saw a non-monotone model: {%s} then {%s}"
                i (pp_set !last_facts) (pp_set facts);
            last_facts := facts;
            for k = 1 to writes_acked do
              if not (FactSet.mem (i, k) facts) then
                Alcotest.failf
                  "client %d read after its write %d but f(%d,%d) is missing" i
                  writes_acked i k
            done)
        history)
    histories;
  (* global checks: every model is a union of per-client prefixes, and
     all observed models form one inclusion chain *)
  let observed =
    List.concat_map
      (fun (_, history) ->
        List.filter_map
          (function Saw { facts; _ } -> Some facts | Wrote _ -> None)
          history)
      histories
  in
  List.iter check_prefix_closure observed;
  let sorted =
    List.sort (fun a b -> compare (FactSet.cardinal a) (FactSet.cardinal b))
      observed
  in
  ignore
    (List.fold_left
       (fun smaller larger ->
         if not (FactSet.subset smaller larger) then
           Alcotest.failf "incomparable models: {%s} vs {%s}" (pp_set smaller)
             (pp_set larger);
         larger)
       FactSet.empty sorted
      : FactSet.t);
  Alcotest.(check bool) "some reads happened" true (observed <> []);
  (* --- single-threaded replay -------------------------------------- *)
  let final =
    match
      W.member "models" (ok_exn "final models" (request_exn setup models_line))
    with
    | Some (W.List [ m ]) -> facts_of_model m
    | _ -> Alcotest.fail "final read"
  in
  Server.Client.close setup;
  let s = Kb.Session.create () in
  Kb.Session.define s "kb" (Helpers.rules "seed.");
  List.iteri
    (fun idx (writes, _) ->
      for k = 1 to writes do
        Kb.Session.add_rule_src s ~obj:"kb"
          (Printf.sprintf "f(%d,%d)." (idx + 1) k)
      done)
    histories;
  let replayed = Kb.Session.least_model s ~obj:"kb" in
  let expected =
    List.fold_left
      (fun acc l ->
        match
          Scanf.sscanf_opt (Logic.Literal.to_string l) "f(%d, %d)" (fun i k ->
              (i, k))
        with
        | Some f -> FactSet.add f acc
        | None -> acc)
      FactSet.empty
      (Logic.Interp.to_literals replayed)
  in
  if not (FactSet.equal final expected) then
    Alcotest.failf "replay mismatch: daemon {%s} vs session {%s}" (pp_set final)
      (pp_set expected);
  let total_writes = List.fold_left (fun n (w, _) -> n + w) 0 histories in
  Alcotest.(check int) "every acknowledged write survived" total_writes
    (FactSet.cardinal final)

let suite =
  [ Alcotest.test_case "concurrent history linearizes" `Quick
      test_concurrent_history
  ]
