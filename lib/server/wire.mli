(** The query-server wire protocol: line-oriented JSON, hand-rolled.

    One request per line, one response per line, both single JSON objects
    (RFC 8259 grammar, UTF-8, no extensions; newlines never occur inside
    an encoded document).  This module is pure — no sockets, no clocks —
    so the codec is unit-testable and fuzzable in isolation: {!parse} and
    {!decode_request} return typed errors and never raise, whatever the
    input bytes.

    Requests are objects with an ["op"] field selecting the {!verb},
    verb-specific string fields, an optional integer ["id"] echoed back
    in the response, and optional ["timeout_ms"]/["max_steps"] budget
    fields (clamped server-side; see [docs/SERVER.md] for the grammar).
    Responses carry a ["status"] of ["ok"], ["partial"] (a resource
    budget ran out; any payload is a sound prefix) or ["error"] (with an
    ["error"] object holding ["kind"] and ["message"]). *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

type error =
  | Oversized of { length : int; limit : int }
      (** input line longer than the frame limit *)
  | Syntax of { offset : int; message : string }
      (** malformed JSON (byte offset of the failure) *)
  | Request of { message : string }
      (** well-formed JSON that is not a valid request *)

val error_to_string : error -> string
(** One-line human-readable rendering (also sent back in error
    responses). *)

val default_max_len : int
(** Default frame limit, 1 MiB. *)

val parse : ?max_len:int -> string -> (json, error) result
(** Parse one JSON document.  Never raises: syntax errors, oversized
    input and over-deep nesting come back as [Error _]. *)

val to_string : json -> string
(** Encode on a single line (strings are escaped, so the result contains
    no newline).  Non-finite floats encode as [null]. *)

val member : string -> json -> json option
(** Field lookup in an object ([None] on non-objects too). *)

(** {1 Requests} *)

type budget_spec = { timeout_ms : int option; max_steps : int option }

type verb =
  | Load of { src : string }
  | Define of { name : string; isa : string list; rules : string }
  | Add_rule of { obj : string; rule : string }
  | Remove_rule of { obj : string; rule : string }
  | New_version of { name : string; rules : string option }
  | Query of { obj : string; lit : string; prefer : bool }
      (** with [prefer] (["prefer":"compiled"]), the skeptical value of
          [lit] across the preferred models (under the KB's preference
          pairs) instead of its least-model value *)
  | Models of {
      obj : string;
      kind : [ `Stable | `Af ];
      limit : int option;
      prefer : bool;
    }
      (** enumerated by the compiled kernel.  With [prefer]
          (["prefer":"compiled"]), enumerate the preferred models of the
          compiled preference translation instead; combining it with the
          assumption-free kind is a request error.  The revision-7
          engine selectors ["search"] and ["engine"] are still accepted
          with the value ["compiled"] on query and models (and ignored);
          any other value of ["search"], ["engine"] or ["prefer"] is a
          request error *)
  | Set_preference of { rule : string; over : string }
      (** add one rule-preference pair (a write; replicates) *)
  | Clear_preference of { rule : string; over : string }
      (** remove one rule-preference pair (a write; replicates) *)
  | Explain of { obj : string; lit : string }
  | Stats
  | Version  (** package version and protocol revision *)
  | Snapshot  (** force a durable snapshot (needs a data directory) *)
  | Shutdown
  | Hello of {
      seq : int;
      protocol : int;
      epoch : int;
      rid : string option;
      addr : string option;
    }
      (** replication handshake: the replica announces its last applied
          sequence number, its {!protocol_revision}, the highest
          replication epoch it has seen (fencing; defaults to 0 on the
          wire), an optional instance id used to attribute durability
          confirmations (synchronous commit), and an optional
          client-reachable address the primary republishes in its
          [stats] topology *)
  | Pull of {
      from_seq : int;
      max : int option;
      epoch : int;
      rid : string option;
      durable : int option;
      addr : string option;
    }
      (** ship WAL records after [from_seq] (at most [max]); an empty
          pull doubles as a heartbeat.  [epoch] must match the server's
          current term (fencing); [durable], when present, confirms that
          the replica [rid] has every mutation up to it on stable
          storage — the piggybacked acknowledgement synchronous commit
          waits for *)
  | Fetch_snapshot of { epoch : int }
      (** bootstrap: fetch a full snapshot image *)
  | Promote  (** turn this replica into a standalone primary *)
  | Batch of batch_item list
      (** pipelining: up to {!max_batch} requests in one frame, answered
          by one reply frame carrying the per-item responses in order *)

and request = { id : int option; budget : budget_spec; verb : verb }

and batch_item = (request, string) result
(** One batched request; [Error message] is a per-item decode failure
    (malformed payload, nested batch, or a connection-scoped verb such
    as [shutdown]/[hello]/[pull]/[fetch_snapshot]/[promote]) that the
    server answers in place with a ["proto"] error, leaving the sibling
    requests to run normally. *)

val package_version : string
(** The released package version (also [olp --version]). *)

val protocol_revision : int
(** Bumped whenever the request/response grammar gains or changes a
    verb or field; reported by the [version] and [stats] verbs so
    clients can detect what they are talking to. *)

val max_batch : int
(** Most requests one [batch] frame may carry (256); a longer list is a
    whole-frame [Request] error. *)

val decode_request : ?max_len:int -> string -> (request, error) result
(** Parse and validate one request line.  Never raises. *)

val batch : ?id:int -> json list -> json
(** Build a [batch] request frame from encoded item objects (client-side
    helper; the optional [id] is echoed on the reply envelope). *)

(** {1 Responses} *)

val ok : ?id:int -> (string * json) list -> json
(** [{"status": "ok", "id": id?, ...fields}]. *)

val partial : ?id:int -> reason:string -> (string * json) list -> json
(** [{"status": "partial", "id": id?, "reason": reason, ...fields}] — the
    structured budget-trip response. *)

val error_response :
  ?id:int -> ?extra:(string * json) list -> kind:string -> string -> json
(** [{"status": "error", "id": id?, "error": {"kind": kind, "message":
    message, ...extra}}].  Kinds in use: ["proto"] (undecodable request),
    ["input"] (bad program text, unknown object, precondition), ["diag"]
    (a typed {!Ordered.Diag} error), ["read_only"] (a write reached a
    replica; [extra] carries a ["primary"] address for client-side
    redirect), ["handshake"] (replication handshake refused: protocol
    mismatch or diverged history), ["fenced"] (replication request from
    or to a superseded epoch; [extra] carries the refusing server's
    ["epoch"]), ["behind"] (the requested WAL tail was compacted away;
    fetch a snapshot), ["sync_timeout"] (write durable locally but the
    required replica confirmations did not arrive in time), ["busy"]
    (request queue full), ["draining"] (server shutting down),
    ["internal"]. *)

val status_of_response : json -> [ `Ok | `Partial | `Error | `Unknown ]
(** Classify a response line (used by [olp call] for its exit code). *)
