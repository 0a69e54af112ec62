(** Typed diagnostics for the solver stack.

    Library errors that previously surfaced as bare [Failure]/
    [Invalid_argument] strings are raised as [Error] carrying a structured
    {!error} variant with enough source context to be machine-handled: the
    CLI maps them to exit codes, the REPL prints them and returns to the
    prompt, and tests match on the variant rather than on message text.

    Taxonomy:

    - {!Grounding_overflow} — the instantiation cap of
      [Ordered.Gop.ground ?max_instances] (the CLI's [--max-instances]) was
      exceeded; carries the offending rule and the counts.
    - {!Eval_error} — a builtin arithmetic evaluation failed (division or
      modulo by zero).
    - {!Nonground_builtin} — a builtin literal still had free variables
      when it had to be evaluated.
    - {!Internal_invariant} — an "impossible" internal state was reached
      (e.g. an inconsistent derivation in the monotone fixpoint engine);
      carries the atom id and the two polarities involved.
    - {!Invalid_input} — a caller-facing precondition failed.
    - {!Preference_cycle} — a rule-preference declaration would make the
      combined rule order cyclic; carries the cycle as a name chain.
    - {!Read_only} — a mutation reached a KB that only follows a
      replication stream; carries the primary's printable address so the
      caller can redirect the write.
    - {!Sync_timeout} — synchronous commit could not gather the required
      replica confirmations in time; the mutation {e is} durable locally
      (and applied), only its replication guarantee is degraded. *)

type error =
  | Grounding_overflow of {
      rule : string;  (** the rule whose instances overflowed the cap *)
      produced : int;  (** instances produced when the cap tripped *)
      cap : int;
      universe : int;  (** Herbrand universe size, for context *)
    }
  | Eval_error of { op : string; detail : string }
  | Nonground_builtin of { literal : string; context : string }
  | Internal_invariant of {
      where : string;
      atom : int;  (** interned atom id involved in the breach *)
      existing : bool;  (** polarity already recorded for the atom *)
      derived : bool;  (** polarity the engine attempted to derive *)
    }
  | Invalid_input of { where : string; detail : string }
  | Preference_cycle of { cycle : string list }
      (** a [prefer] declaration (combined with the component order)
          relates a rule to itself; [cycle] is the offending chain of
          rule names / component labels, first element repeated last *)
  | Read_only of { primary : string }
      (** the write must go to [primary] (a printable address) *)
  | Sync_timeout of {
      seq : int;  (** the mutation's WAL sequence number *)
      required : int;  (** replicas that had to confirm *)
      confirmed : int;  (** replicas that did confirm in time *)
      timeout_ms : int;
    }

exception Error of error

val fail : error -> 'a
(** [fail e] raises [Error e]. *)

val invalid : where:string -> string -> 'a
(** [invalid ~where detail] raises [Error (Invalid_input _)]. *)

val to_string : error -> string
val pp : Format.formatter -> error -> unit
