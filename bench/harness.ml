(* What the serving benchmarks share: the failure exit, scratch data
   directories, wall-clock timing, the facts workload, in-process
   daemons and checked client round trips.  Messages and directory
   names carry the benchmark's executable name. *)

module W = Server.Wire

let name = Filename.remove_extension (Filename.basename Sys.executable_name)

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline (name ^ ": " ^ s); exit 1) fmt

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "olp-bench-%s-%d-%d" name (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* one Define up front, then distinct fact appends: the steady-state
   shape of a long-lived KB session *)
let define =
  Kb.Store.Define
    { name = "facts";
      isa = [];
      rules = [ Lang.Parser.parse_rule "q(X) :- p(X)." ]
    }

let mutation i =
  Kb.Store.Add_rule
    { obj = "facts"; rule = Lang.Parser.parse_rule (Printf.sprintf "p(%d)." i) }

let persist_config ?(fsync = false) ?(group_commit_ms = 0) dir =
  { Persist.dir; fsync; snapshot_every = 0; group_commit_ms }

(* A daemon on an ephemeral loopback port, built from its config as
   `olp serve` builds it; [start] runs its accept loop in a thread. *)
let daemon ?(workers = 4) ?persist ?replicate_on ?sync ?replica_of () =
  Server.Daemon.create
    { Server.Daemon.address = `Tcp ("127.0.0.1", 0);
      workers;
      parallel = `Threads;
      queue = 256;
      caps = Server.Engine.default_caps;
      persist;
      replicate_on;
      sync;
      replica_of
    }

let start d = Thread.create Server.Daemon.serve d

let stop d thread =
  Server.Daemon.stop d;
  Thread.join thread

(* Step a link until it is in sync; progress is [Ready] or [Applied],
   anything else fails the benchmark (both ends live in this process). *)
let catch_up link =
  let rec go fuel =
    if fuel = 0 then die "replication made no progress";
    match Server.Link.step link with
    | `Applied _ | `Ready -> go (fuel - 1)
    | `Idle -> ()
    | `Retry m -> die "transient failure under bench: %s" m
    | `Fatal m -> die "replication halted: %s" m
    | `Stopped -> die "link stopped under bench"
  in
  go 1_000_000

let connect address =
  match Server.Client.connect ~retry:5. address with
  | Ok c -> c
  | Error e -> die "connect: %s" e

let roundtrip c line =
  match Server.Client.request_line c line with
  | Ok j -> j
  | Error e -> die "request %s: %s" line e

let expect_ok c line =
  let j = roundtrip c line in
  match W.member "status" j with
  | Some (W.String "ok") -> j
  | _ -> die "unexpected response to %s: %s" line (W.to_string j)
