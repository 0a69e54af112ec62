(* olp — command-line front end for the ordered-logic-programming library.

   Subcommands: check, ground, least, models, query, prove, explain, repl.

   Exit codes: 0 success (complete result), 2 error (bad input, unknown
   component, typed diagnostic), 3 partial result (a resource budget ran
   out; any output printed is a sound prefix).  124/125 are left to
   cmdliner. *)

open Cmdliner

let exit_error = 2
let exit_partial = 3

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program path =
  match Ordered.Program.parse (read_file path) with
  | Ok p -> p
  | Error e ->
    Printf.eprintf "%s: %s\n" path e;
    exit 2

(* Like [load_program], but also return the file's [prefer] declarations
   (the program itself does not carry them — preferences are a layer on
   top, resolved against a viewpoint by [Prefer.Spec.make]). *)
let load_program_prefs path =
  match Lang.Parser.parse_file (read_file path) with
  | ast -> (
    match Ordered.Program.of_ast ast with
    | Ok p -> (p, Lang.Ast.prefer_pairs ast)
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2)
  | exception (Lang.Lexer.Error (msg, pos) | Lang.Parser.Error (msg, pos)) ->
    Printf.eprintf "%s: syntax error at %d:%d: %s\n" path pos.Lang.Token.line
      pos.Lang.Token.col msg;
    exit 2

(* Resolve the viewpoint component: an explicit name, or the unique minimal
   component of the order. *)
let resolve_component prog = function
  | Some name -> (
    match Ordered.Program.component_id prog name with
    | Some id -> id
    | None ->
      Printf.eprintf "unknown component %S (available: %s)\n" name
        (String.concat ", "
           (Array.to_list (Ordered.Program.component_names prog)));
      exit 2)
  | None -> (
    match Ordered.Poset.minimal (Ordered.Program.poset prog) with
    | [ id ] -> id
    | ids ->
      Printf.eprintf
        "ambiguous viewpoint: specify -c one of %s\n"
        (String.concat ", "
           (List.map (Ordered.Program.component_name prog) ids));
      exit 2)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Ordered-program source file.")

let component_arg =
  Arg.(value & opt (some string) None
       & info [ "c"; "component" ] ~docv:"COMPONENT"
           ~doc:"Viewpoint component (default: the unique minimal one).")

let depth_arg =
  Arg.(value & opt int 0
       & info [ "depth" ] ~docv:"N"
           ~doc:"Function-symbol nesting bound for grounding.")

(* --facts rel=path, repeatable: bulk-load a base relation from delimited
   text into the viewpoint component. *)
let facts_arg =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (`Msg "expected REL=PATH")
  in
  let print ppf (rel, path) = Format.fprintf ppf "%s=%s" rel path in
  Arg.(value & opt_all (conv (parse, print)) []
       & info [ "facts" ] ~docv:"REL=PATH"
           ~doc:"Load tab-separated tuples from $(i,PATH) as facts of \
                 relation $(i,REL) into the viewpoint component \
                 (repeatable).")

let max_instances_arg =
  Arg.(value & opt (some int) None
       & info [ "max-instances" ] ~docv:"N"
           ~doc:"Abort grounding once more than N ground instances are \
                 produced (guards against accidental blow-up).")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Wall-clock budget in seconds.  On exhaustion the command \
                 prints any sound partial result, warns on stderr and \
                 exits 3.")

let max_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "max-steps" ] ~docv:"N"
           ~doc:"Solver work budget in steps (fixpoint queue pops, \
                 enumeration nodes, grounding candidates).  On exhaustion \
                 the command exits 3, like $(b,--timeout).")

let budget_term =
  let mk timeout max_steps = Ordered.Budget.make ?timeout ?max_steps () in
  Term.(const mk $ timeout_arg $ max_steps_arg)

(* Run a subcommand body under a budget: poll once up front (so a
   [--timeout 0] never starts work), map typed diagnostics to exit 2 and
   budget exhaustion to exit 3. *)
let governed budget f =
  try
    Ordered.Budget.check budget;
    f ()
  with
  | Ordered.Diag.Error e ->
    Printf.eprintf "error: %s\n" (Ordered.Diag.to_string e);
    exit exit_error
  | Ordered.Budget.Exhausted r ->
    Printf.eprintf "budget exhausted (%s)\n"
      (Ordered.Budget.reason_to_string r);
    exit exit_partial

let ground_view ?budget file comp depth facts max_instances =
  let prog = load_program file in
  let id = resolve_component prog comp in
  let prog =
    List.fold_left
      (fun prog (rel, path) ->
        match Edb.facts_of_file ~rel path with
        | Ok fs -> Ordered.Program.add_rules prog id fs
        | Error e ->
          Printf.eprintf "%s: %s\n" path e;
          exit 2)
      prog facts
  in
  match
    Ordered.Gop.ground ?budget ?max_instances ~depth prog id
  with
  | g -> (prog, id, g)
  | exception Invalid_argument e ->
    Printf.eprintf "%s\n" e;
    exit exit_error

(* ------------------------------------------------------------------ *)

let dot_arg =
  Arg.(value & flag
       & info [ "dot" ]
           ~doc:"Emit a Graphviz digraph instead of text output.")

let check_cmd =
  let run budget file dot =
    governed budget @@ fun () ->
    let prog, prefs = load_program_prefs file in
    if dot then (print_string (Ordered.Dot.poset prog); exit 0);
    let names = Ordered.Program.component_names prog in
    Format.printf "%d component(s): %s@." (Array.length names)
      (String.concat ", " (Array.to_list names));
    let poset = Ordered.Program.poset prog in
    Array.iteri
      (fun a _ ->
        Array.iteri
          (fun b _ ->
            if Ordered.Poset.lt poset a b then
              Format.printf "  %s < %s@." names.(a) names.(b))
          names)
      names;
    if prefs <> [] then begin
      Format.printf "%d preference(s):@." (List.length prefs);
      List.iter (fun (a, b) -> Format.printf "  %s > %s@." a b) prefs;
      (* resolve against each minimal viewpoint: names must exist and the
         combined rule order must stay a strict partial order *)
      List.iter
        (fun comp -> ignore (Prefer.Spec.make prog comp prefs : Prefer.Spec.t))
        (Ordered.Poset.minimal (Ordered.Program.poset prog))
    end;
    let unsafe = Ground.Safety.check (Ordered.Program.all_rules prog) in
    List.iter
      (fun r -> Format.printf "warning: %a@." Ground.Safety.pp_report r)
      unsafe;
    (* Static conflict analysis from each minimal viewpoint. *)
    List.iter
      (fun comp ->
        List.iter
          (fun c ->
            Format.printf "conflict [from %s]: %a@."
              (Ordered.Program.component_name prog comp)
              (Ordered.Analysis.pp_conflict prog)
              c)
          (Ordered.Analysis.conflicts prog comp))
      (Ordered.Poset.minimal (Ordered.Program.poset prog));
    Format.printf "ok@."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse and sanity-check a program: components, order, rule \
             safety, and the static overruling/defeating structure \
             ($(b,--dot) draws the component order).")
    Term.(const run $ budget_term $ file_arg $ dot_arg)

let ground_cmd =
  let stats_flag =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print size diagnostics instead of the rules.")
  in
  let run budget file comp depth facts max_instances stats =
    governed budget @@ fun () ->
    let prog, _, g =
      ground_view ~budget file comp depth facts max_instances
    in
    if stats then
      Format.printf "%a@." Ordered.Gop.pp_stats (Ordered.Gop.stats g)
    else
      Array.iteri
        (fun i c ->
          Format.printf "[%s] %a@."
            (Ordered.Program.component_name prog c)
            Logic.Rule.pp
            (Ordered.Gop.rule_src g i))
        g.Ordered.Gop.rule_comp
  in
  Cmd.v
    (Cmd.info "ground" ~doc:"Print the ground instances of the view C*.")
    Term.(const run $ budget_term $ file_arg $ component_arg $ depth_arg
          $ facts_arg $ max_instances_arg $ stats_flag)

let least_cmd =
  let run budget file comp depth facts max_instances =
    governed budget @@ fun () ->
    let _, _, g =
      ground_view ~budget file comp depth facts max_instances
    in
    Format.printf "%a@." Logic.Interp.pp (Ordered.Vfix.least_model ~budget g)
  in
  Cmd.v
    (Cmd.info "least"
       ~doc:"Print the least model (the fixpoint of the ordered immediate \
             transformation V).")
    Term.(const run $ budget_term $ file_arg $ component_arg $ depth_arg
          $ facts_arg $ max_instances_arg)

let models_cmd =
  let kind =
    Arg.(value
         & opt (enum [ ("stable", `Stable); ("assumption-free", `Af);
                       ("total", `Total) ])
             `Stable
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Which models to enumerate: $(b,stable) (default), \
                   $(b,assumption-free) or $(b,total).")
  in
  let limit =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N" ~doc:"Stop after N models.")
  in
  let stats_flag =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print search-effort counters (nodes, leaves, prunes, \
                   forced, models, and the kernel's propagations, \
                   conflicts, learned/evicted nogoods and restarts) on \
                   stderr after the models.")
  in
  let prefer =
    Arg.(value & flag
         & info [ "prefer" ]
             ~doc:"Enumerate only the $(i,preferred) stable models under \
                   the file's $(b,prefer) declarations: the preferences \
                   are translated into fresh components and the kernel \
                   enumerates the stable models of the compiled program.  \
                   Stable models only.")
  in
  let run budget file comp depth facts max_instances kind limit
      stats prefer =
    governed budget @@ fun () ->
    let counters = Ordered.Counters.create () in
    let result =
      if prefer then begin
        if kind <> `Stable then begin
          Printf.eprintf "--prefer applies to stable models only\n";
          exit exit_error
        end;
        let prog, prefs = load_program_prefs file in
        let id = resolve_component prog comp in
        let prog =
          List.fold_left
            (fun prog (rel, path) ->
              match Edb.facts_of_file ~rel path with
              | Ok fs -> Ordered.Program.add_rules prog id fs
              | Error e ->
                Printf.eprintf "%s: %s\n" path e;
                exit 2)
            prog facts
        in
        let spec = Prefer.Spec.make prog id prefs in
        match
          Prefer.Compile.gop ~budget ?max_instances ~depth
            (Prefer.Compile.compile spec)
        with
        | g -> Solve.Kernel.stable_models ?limit ~budget ~stats:counters g
        | exception Invalid_argument e ->
          Printf.eprintf "%s\n" e;
          exit exit_error
      end
      else
        let _, _, g =
          ground_view ~budget file comp depth facts max_instances
        in
        match kind with
        | `Stable -> Solve.Kernel.stable_models ?limit ~budget ~stats:counters g
        | `Af ->
          Solve.Kernel.assumption_free_models ?limit ~budget ~stats:counters g
        | `Total -> Solve.Kernel.total_models ?limit ~budget ~stats:counters g
    in
    let models = Ordered.Budget.value result in
    Format.printf "%d model(s)@." (List.length models);
    List.iter (fun m -> Format.printf "%a@." Logic.Interp.pp m) models;
    if stats then
      Format.eprintf "search: %a@." Ordered.Counters.pp counters;
    match result with
    | Ordered.Budget.Complete _ -> ()
    | Ordered.Budget.Partial (_, r) ->
      Printf.eprintf
        "warning: enumeration truncated, budget exhausted (%s); the models \
         above are a prefix of the full enumeration\n"
        (Ordered.Budget.reason_to_string r);
      exit exit_partial
  in
  Cmd.v
    (Cmd.info "models"
       ~doc:"Enumerate stable / assumption-free / total models \
             ($(b,--prefer) restricts to the preferred stable models \
             under the file's $(b,prefer) declarations).")
    Term.(const run $ budget_term $ file_arg $ component_arg $ depth_arg
          $ facts_arg $ max_instances_arg $ kind $ limit
          $ stats_flag $ prefer)

let query_cmd =
  let mode =
    Arg.(value
         & opt (enum [ ("least", `Least); ("cautious", `Cautious);
                       ("brave", `Brave) ])
             `Least
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Reasoning mode for ground literals: $(b,least) \
                   (skeptical, the least model — default), $(b,cautious) \
                   (true in every stable model) or $(b,brave) (true in \
                   some stable model).")
  in
  let lit =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"LITERAL"
           ~doc:"Literal, e.g. 'fly(penguin)' or 'fly(X)' (variables \
                 enumerate the true instances).")
  in
  let run budget file comp depth facts max_instances mode lit_src =
    governed budget @@ fun () ->
    let _, _, g =
      ground_view ~budget file comp depth facts max_instances
    in
    let l = Lang.Parser.parse_literal lit_src in
    if Logic.Literal.is_ground l then
      match mode with
      | `Least ->
        Format.printf "%a@." Logic.Interp.pp_value
          (Ordered.Query.ask ~budget g l)
      | `Cautious ->
        Format.printf "%b@." (Solve.Kernel.cautious ~budget g l)
      | `Brave -> Format.printf "%b@." (Solve.Kernel.brave ~budget g l)
    else
      match mode with
      | `Cautious | `Brave ->
        Printf.eprintf
          "error: --mode %s answers ground literals only; %s has variables\n"
          (if mode = `Cautious then "cautious" else "brave")
          lit_src;
        exit exit_error
      | `Least ->
        let instances = Ordered.Query.holds_instances ~budget g l in
        Format.printf "%d answer(s)@." (List.length instances);
        List.iter (fun i -> Format.printf "%a@." Logic.Literal.pp i) instances
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Evaluate a literal against the least model: truth value for a \
             ground literal, all true instances for a literal with \
             variables.")
    Term.(const run $ budget_term $ file_arg $ component_arg $ depth_arg
          $ facts_arg $ max_instances_arg $ mode $ lit)

let prove_cmd =
  let lit =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"LITERAL"
           ~doc:"Ground literal to prove goal-directedly.")
  in
  let run budget file comp depth facts max_instances lit_src =
    governed budget @@ fun () ->
    let _, _, g =
      ground_view ~budget file comp depth facts max_instances
    in
    let l = Lang.Parser.parse_literal lit_src in
    let v = Ordered.Prove.value ~budget g l in
    let _, stats = Ordered.Prove.holds_with_stats ~budget g l in
    Format.printf "%a@." Logic.Interp.pp_value v;
    Format.printf "(explored %d of %d ground rules)@."
      stats.Ordered.Prove.relevant_rules stats.Ordered.Prove.total_rules
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Goal-directed proof of a ground literal (relevance-closure \
             restriction of the least-model computation).")
    Term.(const run $ budget_term $ file_arg $ component_arg $ depth_arg
          $ facts_arg $ max_instances_arg $ lit)

let explain_cmd =
  let lit =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"LITERAL"
           ~doc:"Ground literal to explain.")
  in
  let run budget file comp depth facts max_instances dot lit_src =
    governed budget @@ fun () ->
    let _, _, g =
      ground_view ~budget file comp depth facts max_instances
    in
    let l = Lang.Parser.parse_literal lit_src in
    if dot then print_string (Ordered.Dot.derivation g l)
    else Format.printf "%a@." Ordered.Explain.pp (Ordered.Explain.explain g l)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain why a literal holds, fails or is undefined in the \
             least model ($(b,--dot) draws the derivation neighbourhood).")
    Term.(const run $ budget_term $ file_arg $ component_arg $ depth_arg
          $ facts_arg $ max_instances_arg $ dot_arg $ lit)

let repl_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Optional program to load at startup.")
  in
  let run timeout max_steps file = Repl.run ?timeout ?max_steps ?file () in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Interactive session: queries, :least, :stable, :explain, \
             :assert and more (see :help).  $(b,--timeout)/$(b,--max-steps) \
             budget each evaluated line; exhaustion returns to the prompt.")
    Term.(const run $ timeout_arg $ max_steps_arg $ file)

(* ------------------------------------------------------------------ *)
(* Query server: olp serve / olp call                                  *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on (serve) or connect to (call) a Unix-domain \
                 socket at $(i,PATH).")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Listen on (serve) or connect to (call) TCP $(i,PORT); \
                 for $(b,serve), port 0 picks an ephemeral port (see \
                 $(b,--port-file)).")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR"
           ~doc:"IP address for $(b,--port) (default 127.0.0.1).")

let address_of socket port host =
  match socket, port with
  | Some path, None -> `Unix path
  | None, Some port -> `Tcp (host, port)
  | None, None ->
    Printf.eprintf "specify --socket PATH or --port PORT\n";
    exit exit_error
  | Some _, Some _ ->
    Printf.eprintf "--socket and --port are mutually exclusive\n";
    exit exit_error

let data_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Durable KB: recover the knowledge base from $(i,DIR) at \
                 startup (creating it if missing) and write-ahead-log \
                 every mutation to it, so a restart — graceful or not — \
                 resumes where the server left off.  See \
                 docs/PERSISTENCE.md.")

let no_fsync_arg =
  Arg.(value & flag
       & info [ "no-fsync" ]
           ~doc:"Skip fsync on log appends and snapshots: faster, but an \
                 OS crash (not a process crash) may lose the most recent \
                 mutations.")

let snapshot_every_arg =
  Arg.(value & opt int 0
       & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Write a snapshot and start a fresh log segment \
                 automatically every $(i,N) mutations (default 0: only \
                 on the $(i,snapshot) verb or $(b,olp compact)).")

let group_commit_arg =
  Arg.(value & opt int 0
       & info [ "group-commit-ms" ] ~docv:"N"
           ~doc:"Batch log fsyncs: mutations acknowledged within an \
                 $(i,N)-millisecond window share one fsync, so \
                 concurrent writers pay the disk-flush latency once \
                 between them (default 0: one fsync per mutation).  No \
                 effect with $(b,--no-fsync).")

(* Shared by serve/recover/compact: describe what recovery found, and
   whether the result is the full history or a sound prefix of it. *)
let report_recovery ~prog ~dir (r : Persist.recovery) =
  Printf.printf "%s: data dir %s (seq %d, replayed %d from base %d%s)\n%!"
    prog dir r.seq r.replayed r.base
    (if r.epoch > 0 then Printf.sprintf ", epoch %d" r.epoch else "");
  if r.tmp_swept > 0 then
    Printf.printf "%s: swept %d stale temp file(s)\n%!" prog r.tmp_swept;
  if r.corrupt_snapshots > 0 then
    Printf.eprintf "%s: warning: skipped %d corrupt snapshot(s)\n" prog
      r.corrupt_snapshots;
  (match r.torn with
  | None -> ()
  | Some t ->
    Printf.eprintf
      "%s: warning: truncated torn log tail (%s at offset %d of %s, %d \
       byte(s) dropped); the recovered state is a sound prefix of the \
       mutation history\n"
      prog t.detail t.offset t.segment t.dropped);
  (match r.cut with
  | None -> ()
  | Some c ->
    (* a requested rewind, not damage: report on stdout, exit 0 *)
    Printf.printf
      "%s: %s (truncated %s at offset %d, %d byte(s) dropped)\n%!"
      prog c.detail c.segment c.offset c.dropped);
  if r.torn <> None || r.corrupt_snapshots > 0 then exit_partial else 0

let serve_cmd =
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N" ~doc:"Worker threads (default 4).")
  in
  let parallel =
    Arg.(value
         & opt (enum [ ("threads", `Threads); ("domains", `Domains) ]) `Threads
         & info [ "parallel" ] ~docv:"KIND"
             ~doc:"Worker flavour: $(i,threads) (default; interleaved \
                   systhreads that overlap on blocking I/O) or \
                   $(i,domains) (OCaml 5 domains, truly parallel \
                   workers).  Reads are lock-free either way; this picks \
                   what executes them.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Bounded request-queue capacity (default 64); a full \
                   queue answers with a typed $(i,busy) error.")
  in
  let max_timeout =
    Arg.(value & opt (some float) (Some 30.)
         & info [ "max-timeout" ] ~docv:"SECS"
             ~doc:"Server-side cap on per-request wall-clock budgets \
                   (default 30; requests asking for more, or for \
                   nothing, get this).  Negative disables the cap.")
  in
  let max_steps_cap =
    Arg.(value & opt (some int) None
         & info [ "max-steps-cap" ] ~docv:"N"
             ~doc:"Server-side cap on per-request step budgets \
                   (default: none).")
  in
  let port_file =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE"
             ~doc:"Write the bound TCP port to $(i,FILE) once listening \
                   (for $(b,--port 0)).")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Optional program loaded into the knowledge base before \
                 serving.")
  in
  let replicate_on =
    Arg.(value & opt (some string) None
         & info [ "replicate-on" ] ~docv:"ADDR"
             ~doc:"Accept replicas on a second listener at $(i,ADDR) \
                   ($(i,HOST:PORT), a bare TCP port, or a Unix socket \
                   path) and ship the write-ahead log to them.  Requires \
                   $(b,--data-dir).  See docs/REPLICATION.md.")
  in
  let replica_of =
    Arg.(value & opt (some string) None
         & info [ "replica-of" ] ~docv:"ADDR"
             ~doc:"Run as a read-only replica of the primary whose \
                   replication listener is at $(i,ADDR): bootstrap or \
                   tail its log into $(b,--data-dir), serve reads, and \
                   reject writes with a typed $(i,read_only) error.  \
                   $(b,olp promote) (or SIGUSR1) detaches and starts \
                   accepting writes.  Combine with $(b,--replicate-on) \
                   to re-serve this replica's log to replicas of its \
                   own (a chained topology).  See docs/REPLICATION.md.")
  in
  let sync_replicas =
    Arg.(value & opt int 0
         & info [ "sync-replicas" ] ~docv:"N"
             ~doc:"Synchronous commit: hold each write's acknowledgement \
                   until $(i,N) replicas have confirmed the mutation is \
                   on their stable storage (default 0: acknowledge after \
                   the local fsync only).  Requires $(b,--replicate-on).")
  in
  let sync_timeout =
    Arg.(value & opt int 5000
         & info [ "sync-timeout-ms" ] ~docv:"MS"
             ~doc:"With $(b,--sync-replicas), stop waiting for \
                   confirmations after $(i,MS) milliseconds and answer \
                   with a typed $(i,sync_timeout) error instead — the \
                   mutation is applied and locally durable, only its \
                   replication guarantee is degraded (default 5000).")
  in
  let run socket port host workers parallel queue max_timeout max_steps_cap
      port_file data_dir no_fsync snapshot_every group_commit_ms replicate_on
      replica_of sync_replicas sync_timeout file =
    let usage msg =
      Printf.eprintf "olp serve: %s\n" msg;
      exit exit_error
    in
    (match replica_of, data_dir with
    | Some _, None ->
      usage "--replica-of requires --data-dir (the replica keeps its own \
             durable copy of the history)"
    | _ -> ());
    (match replica_of, file with
    | Some _, Some _ ->
      usage "--replica-of cannot load FILE: a replica's content comes \
             from the primary"
    | _ -> ());
    (match replicate_on, data_dir with
    | Some _, None ->
      usage "--replicate-on requires --data-dir (replicas are shipped \
             the write-ahead log)"
    | _ -> ());
    if sync_replicas < 0 then usage "--sync-replicas cannot be negative";
    if sync_timeout <= 0 then usage "--sync-timeout-ms must be positive";
    (match sync_replicas, replicate_on with
    | n, None when n > 0 ->
      usage "--sync-replicas requires --replicate-on (confirmations \
             arrive on the replication listener)"
    | _ -> ());
    let timeout_cap =
      match max_timeout with
      | Some s when s < 0. -> None
      | cap -> cap
    in
    let caps = { Server.Engine.timeout = timeout_cap; steps = max_steps_cap } in
    let persist =
      Option.map
        (fun dir ->
          { Persist.dir; fsync = not no_fsync; snapshot_every;
            group_commit_ms })
        data_dir
    in
    let config =
      { Server.Daemon.address = address_of socket port host;
        workers;
        parallel;
        queue;
        caps;
        persist;
        replicate_on = Option.map Server.Net.parse_address replicate_on;
        sync =
          (if sync_replicas > 0 then
             Some
               { Server.Engine.replicas = sync_replicas;
                 timeout_ms = sync_timeout
               }
           else None);
        replica_of =
          Option.map
            (fun addr ->
              { (Server.Link.default_config (Server.Net.parse_address addr))
                with
                log = (fun msg -> Printf.printf "olp serve: %s\n%!" msg)
              })
            replica_of
      }
    in
    let daemon =
      try Server.Daemon.create config with
      | Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "olp serve: cannot listen (%s%s)\n"
          (Unix.error_message e)
          (if arg = "" then "" else ": " ^ arg);
        exit exit_error
      | Ordered.Diag.Error e ->
        Printf.eprintf "olp serve: %s\n" (Ordered.Diag.to_string e);
        exit exit_error
    in
    (match Server.Daemon.recovery daemon, data_dir with
    | Some r, Some dir ->
      ignore (report_recovery ~prog:"olp serve" ~dir r : int)
    | _ -> ());
    Server.Daemon.install_signal_handlers daemon;
    (match file with
    | None -> ()
    | Some path -> (
      let session = Server.Engine.session (Server.Daemon.engine daemon) in
      try Kb.Session.load session (read_file path) with
      | Invalid_argument msg ->
        Printf.eprintf "%s: %s\n" path msg;
        exit exit_error
      | Lang.Lexer.Error (msg, pos) | Lang.Parser.Error (msg, pos) ->
        Printf.eprintf "%s: error at %d:%d: %s\n" path pos.Lang.Token.line
          pos.Lang.Token.col msg;
        exit exit_error));
    let workers_desc =
      match parallel with
      | `Threads -> Printf.sprintf "%d workers" workers
      | `Domains -> Printf.sprintf "%d domain workers" workers
    in
    (match Server.Daemon.address daemon with
    | `Unix path ->
      Printf.printf "olp serve: listening on unix:%s (%s)\n%!" path
        workers_desc
    | `Tcp (host, port) ->
      Printf.printf "olp serve: listening on tcp:%s:%d (%s)\n%!" host
        port workers_desc;
      (match port_file with
      | None -> ()
      | Some f ->
        let oc = open_out f in
        Printf.fprintf oc "%d\n" port;
        close_out oc));
    (match Server.Daemon.replication_address daemon with
    | Some addr ->
      Printf.printf "olp serve: accepting replicas on %s\n%!"
        (Server.Net.address_to_string addr)
    | None -> ());
    (match config.replica_of with
    | Some { primary; _ } ->
      Printf.printf "olp serve: replicating from %s\n%!"
        (Server.Net.address_to_string primary)
    | None -> ());
    Server.Daemon.serve daemon
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the concurrent query server: a line-oriented JSON \
             protocol over a Unix-domain or TCP socket, a bounded \
             request queue and a fixed worker pool, per-request budgets \
             clamped by server-side caps, a memoizing KB session cache, \
             and graceful drain on SIGINT/SIGTERM or the $(i,shutdown) \
             verb.  See docs/SERVER.md for the protocol, \
             docs/PERSISTENCE.md for $(b,--data-dir) and \
             docs/REPLICATION.md for $(b,--replicate-on) / \
             $(b,--replica-of).")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ workers $ parallel
          $ queue $ max_timeout $ max_steps_cap $ port_file $ data_dir_arg
          $ no_fsync_arg $ snapshot_every_arg $ group_commit_arg
          $ replicate_on $ replica_of $ sync_replicas $ sync_timeout
          $ file)

let call_cmd =
  let retry =
    Arg.(value & opt float 0.
         & info [ "retry" ] ~docv:"SECS"
             ~doc:"Keep retrying a refused connection for up to \
                   $(i,SECS) seconds (rides out server startup).")
  in
  let seeds =
    Arg.(value & opt (some string) None
         & info [ "seeds" ] ~docv:"ADDR,ADDR,..."
             ~doc:"Replica-set mode: a comma-separated list of server \
                   addresses (primary and replicas, in the \
                   $(b,--replicate-on) ADDR grammar).  Writes are routed \
                   to the primary (following $(i,read_only)/$(i,fenced) \
                   redirects), reads round-robin over the set, and \
                   $(b,--retry) rides out a failover in progress.  \
                   Replaces $(b,--socket)/$(b,--port).")
  in
  let requests =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"REQUEST"
           ~doc:"Request lines, sent in order on one connection.  A \
                 REQUEST starting with '{' is sent verbatim as a JSON \
                 request; anything else is shorthand for \
                 {\"op\": REQUEST} (e.g. $(b,stats), $(b,shutdown)).")
  in
  let run socket port host retry seeds requests =
    (* exit with the worst status seen: error > partial > ok *)
    let worst = ref 0 in
    let note = function
      | `Ok -> ()
      | `Partial -> if !worst = 0 then worst := exit_partial
      | `Error | `Unknown -> worst := exit_error
    in
    let line_of req =
      if String.length req > 0 && req.[0] = '{' then req
      else
        Server.Wire.to_string
          (Server.Wire.Obj [ ("op", Server.Wire.String req) ])
    in
    match seeds with
    | Some list ->
      let addrs =
        String.split_on_char ',' list
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map (fun s -> Server.Net.parse_address (String.trim s))
      in
      if addrs = [] then begin
        Printf.eprintf "olp call: --seeds needs at least one address\n";
        exit exit_error
      end;
      let rset = Server.Rset.create addrs in
      List.iter
        (fun req ->
          match Server.Rset.request_line ~retry rset (line_of req) with
          | Ok response ->
            print_endline (Server.Wire.to_string response);
            note (Server.Wire.status_of_response response)
          | Error msg ->
            Printf.eprintf "olp call: %s\n" msg;
            Server.Rset.close rset;
            exit exit_error)
        requests;
      Server.Rset.close rset;
      exit !worst
    | None ->
      let address = address_of socket port host in
      (match Server.Client.connect ~retry address with
      | Error msg ->
        Printf.eprintf "olp call: cannot connect: %s\n" msg;
        exit exit_error
      | Ok client ->
        List.iter
          (fun req ->
            match Server.Client.request_line client (line_of req) with
            | Ok response ->
              print_endline (Server.Wire.to_string response);
              note (Server.Wire.status_of_response response)
            | Error msg ->
              Printf.eprintf "olp call: %s\n" msg;
              Server.Client.close client;
              exit exit_error)
          requests;
        Server.Client.close client;
        exit !worst)
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Send request lines to a running $(b,olp serve) and print \
             the response lines.  Exits 0 if every response is \
             $(i,ok), 3 if any is $(i,partial) (a budget ran out), 2 on \
             any $(i,error) response or connection failure.")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ retry $ seeds
          $ requests)

let promote_cmd =
  let retry =
    Arg.(value & opt float 0.
         & info [ "retry" ] ~docv:"SECS"
             ~doc:"Keep retrying a refused connection for up to \
                   $(i,SECS) seconds.")
  in
  let run socket port host retry =
    let address = address_of socket port host in
    match Server.Client.connect ~retry address with
    | Error msg ->
      Printf.eprintf "olp promote: cannot connect: %s\n" msg;
      exit exit_error
    | Ok client -> (
      let reply =
        Server.Client.request client
          (Server.Wire.Obj [ ("op", Server.Wire.String "promote") ])
      in
      Server.Client.close client;
      match reply with
      | Error msg ->
        Printf.eprintf "olp promote: %s\n" msg;
        exit exit_error
      | Ok response ->
        print_endline (Server.Wire.to_string response);
        (match Server.Wire.status_of_response response with
        | `Ok -> exit 0
        | `Partial -> exit exit_partial
        | `Error | `Unknown -> exit exit_error))
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Tell a running replica ($(b,olp serve --replica-of)) to \
             detach from its primary and become a standalone primary \
             that accepts writes.  Equivalent to sending the replica \
             SIGUSR1.  Exits 2 if the server is not a replica (or is \
             already promoted).")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ retry)

(* ------------------------------------------------------------------ *)
(* Offline maintenance: olp recover / olp compact                      *)
(* ------------------------------------------------------------------ *)

let data_dir_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
         ~doc:"Data directory of an $(b,olp serve --data-dir) instance \
               (which must not be running).")

let with_data_dir ?stop_at prog dir f =
  match
    Persist.open_dir ?stop_at
      { Persist.dir; fsync = true; snapshot_every = 0; group_commit_ms = 0 }
  with
  | p, _, recovery ->
    let status = report_recovery ~prog ~dir recovery in
    let status = f p status in
    Persist.close p;
    exit status
  | exception Ordered.Diag.Error e ->
    Printf.eprintf "%s: %s\n" prog (Ordered.Diag.to_string e);
    exit exit_error
  | exception Unix.Unix_error (e, _, arg) ->
    Printf.eprintf "%s: cannot open %s (%s%s)\n" prog dir
      (Unix.error_message e)
      (if arg = "" then "" else ": " ^ arg);
    exit exit_error

let recover_cmd =
  let to_seq =
    Arg.(value & opt (some int) None
         & info [ "to-seq" ] ~docv:"N"
             ~doc:"Point-in-time recovery: rewind the directory to the \
                   state just after mutation $(i,N), permanently \
                   discarding everything later.  Exits 3 (with the full \
                   history kept) if the history does not reach $(i,N).")
  in
  let run dir to_seq =
    with_data_dir ?stop_at:to_seq "olp recover" dir @@ fun p status ->
    match to_seq with
    | Some n when Persist.seq p < n ->
      Printf.eprintf
        "olp recover: warning: requested sequence %d but the history ends \
         at %d\n"
        n (Persist.seq p);
      if status = 0 then exit_partial else status
    | _ -> status
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Recover a data directory offline and report what was found: \
             sweeps stale temp files, truncates a torn log tail, and \
             verifies the store rebuilds.  $(b,--to-seq) rewinds to an \
             earlier point in the history.  Exits 0 when the full \
             mutation history (or the requested prefix) was recovered, \
             3 when a torn tail or corrupt snapshot forced recovery to a \
             sound prefix, 2 when the directory is unrecoverable.")
    Term.(const run $ data_dir_pos $ to_seq)

let compact_cmd =
  let run dir =
    with_data_dir "olp compact" dir @@ fun p status ->
    let seq, deleted = Persist.compact p in
    Printf.printf "olp compact: snapshot at seq %d, deleted %d file(s)\n"
      seq deleted;
    status
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Recover a data directory offline, write a fresh snapshot \
             and delete the log segments and snapshots it makes \
             obsolete.  Exit codes as for $(b,olp recover).")
    Term.(const run $ data_dir_pos)

let main =
  let doc = "ordered logic programming (Laenens, Sacca, Vermeir; SIGMOD 1990)" in
  Cmd.group (Cmd.info "olp" ~version:Server.Wire.package_version ~doc)
    [ check_cmd; ground_cmd; least_cmd; models_cmd; query_cmd; prove_cmd; repl_cmd;
      explain_cmd; serve_cmd; call_cmd; promote_cmd; recover_cmd; compact_cmd
    ]

let () = exit (Cmd.eval main)
