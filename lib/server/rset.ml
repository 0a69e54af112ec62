(* A self-healing replica-set client: routes writes to the primary,
   reads round-robin, follows redirects and backs off across sweeps.
   See rset.mli for the routing rules. *)

module Backoff = Governor.Backoff

type node = { addr : Net.address; mutable conn : Client.t option }

type t = {
  mutable nodes : node array;
  mutable primary : int option;  (* index into [nodes] *)
  mutable rr : int;  (* round-robin cursor for reads *)
  backoff : Backoff.t;
}

(* One node's connection attempt, and the between-sweep backoff. *)
let connect_retry = 0.05
let retry_base = 0.05
let retry_cap = 1.0

let create seeds =
  if seeds = [] then
    invalid_arg "Rset.create: at least one seed address is required";
  let seen = Hashtbl.create 8 in
  let nodes =
    List.filter_map
      (fun addr ->
        let key = Net.address_to_string addr in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some { addr; conn = None }
        end)
      seeds
  in
  { nodes = Array.of_list nodes;
    primary = None;
    rr = 0;
    backoff =
      Backoff.make ~base:retry_base ~cap:retry_cap
        ~seed:(Hashtbl.hash (List.map Net.address_to_string seeds))
        ()
  }

let primary t =
  Option.map
    (fun i -> Net.address_to_string t.nodes.(i).addr)
    t.primary

let close t =
  Array.iter
    (fun n ->
      (match n.conn with Some c -> Client.close c | None -> ());
      n.conn <- None)
    t.nodes

(* Find or learn a node by address; redirects teach us primaries we
   were never seeded with. *)
let index_of t addr =
  let key = Net.address_to_string addr in
  match
    Array.find_index (fun n -> Net.address_to_string n.addr = key) t.nodes
  with
  | Some i -> i
  | None ->
    t.nodes <- Array.append t.nodes [| { addr; conn = None } |];
    Array.length t.nodes - 1

let drop t i =
  let n = t.nodes.(i) in
  (match n.conn with Some c -> Client.close c | None -> ());
  n.conn <- None;
  if t.primary = Some i then t.primary <- None

let exchange t i j =
  let n = t.nodes.(i) in
  let conn =
    match n.conn with
    | Some c -> Ok c
    | None -> (
      match Client.connect ~retry:connect_retry n.addr with
      | Ok c ->
        n.conn <- Some c;
        Ok c
      | Error _ as e -> e)
  in
  match conn with
  | Error _ as e -> e
  | Ok c -> (
    match Client.request c j with
    | Ok _ as ok -> ok
    | Error _ as e ->
      drop t i;
      e)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

(* The verb's class decides; a request that does not decode draws the
   same ["proto"] error from any node, so it routes like a read. *)
let to_primary j =
  match Wire.decode_json j with
  | Ok r -> (Wire.classify r.verb).to_primary
  | Error _ -> false

let error_field j name =
  match Wire.member "error" j with
  | Some e -> (
    match Wire.member name e with Some (Wire.String s) -> Some s | _ -> None)
  | None -> None

(* A refusal that names the real primary is a redirect; one without is
   still a signal that this node is not the primary. *)
let refused_as_replica j =
  match error_field j "kind" with
  | Some ("read_only" | "fenced") -> Some (error_field j "primary")
  | _ -> None

let order t ~to_primary =
  let n = Array.length t.nodes in
  if to_primary then
    match t.primary with
    | Some p -> p :: List.filter (fun i -> i <> p) (List.init n Fun.id)
    | None -> List.init n Fun.id
  else begin
    let start = t.rr mod n in
    t.rr <- t.rr + 1;
    List.init n (fun k -> (start + k) mod n)
  end

let max_redirect_hops = 4

let request ?(retry = 0.) t j =
  let to_primary = to_primary j in
  let deadline = Unix.gettimeofday () +. retry in
  (* [sweep] walks one node order; [go] restarts after a redirect or,
     within the retry budget, after a backoff sleep. *)
  let rec go ~hops ~last_err =
    let rec sweep ~hops ~last_err = function
      | [] ->
        if Unix.gettimeofday () < deadline then begin
          ignore (Unix.select [] [] [] (Backoff.next t.backoff));
          go ~hops ~last_err
        end
        else Error last_err
      | i :: rest -> (
        match exchange t i j with
        | Error msg ->
          drop t i;
          let last_err =
            Printf.sprintf "%s: %s"
              (Net.address_to_string t.nodes.(i).addr)
              msg
          in
          sweep ~hops ~last_err rest
        (* a draining server is mid-shutdown: same as unreachable *)
        | Ok resp when error_field resp "kind" = Some "draining" ->
          drop t i;
          let last_err =
            Net.address_to_string t.nodes.(i).addr ^ ": draining"
          in
          sweep ~hops ~last_err rest
        | Ok resp -> (
          match refused_as_replica resp with
          | Some _ when not to_primary ->
            (* a read never draws these refusals; don't loop on it *)
            Ok resp
          | Some (Some addr) when hops < max_redirect_hops ->
            t.primary <- Some (index_of t (Net.parse_address addr));
            go ~hops:(hops + 1) ~last_err
          | Some None when rest <> [] ->
            if t.primary = Some i then t.primary <- None;
            sweep ~hops ~last_err rest
          | Some _ ->
            (* redirect budget exhausted, or nowhere left to go: the
               typed refusal is the answer *)
            Ok resp
          | None ->
            if to_primary then t.primary <- Some i;
            Backoff.reset t.backoff;
            Ok resp))
    in
    sweep ~hops ~last_err (order t ~to_primary)
  in
  go ~hops:0 ~last_err:"no nodes reachable"

let request_line ?retry t line =
  match Wire.parse line with
  | Error e ->
    Error (Printf.sprintf "unparsable request: %s" (Wire.error_to_string e))
  | Ok j -> request ?retry t j
