(** Lexical tokens of the ordered-logic-program surface syntax. *)

type t =
  | IDENT of string  (** lowercase identifier: predicate / constant / fn *)
  | VAR of string  (** uppercase or [_]-leading identifier: variable *)
  | INT of int
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | DOT
  | COLON  (** [:]: rule-name separator, [name : head :- body.] *)
  | ARROW  (** [:-] *)
  | MINUS  (** [-]: classical negation at literal position, subtraction in terms *)
  | TILDE  (** [~]: classical negation (alias of [-] at literal position) *)
  | PLUS
  | STAR
  | SLASH
  | LT
  | GT
  | LE
  | GE
  | EQ
  | NEQ  (** [!=] or [<>] *)
  | KW_COMPONENT  (** [component] / [module] / [object] *)
  | KW_EXTENDS
  | KW_ORDER
  | KW_PREFER
  | KW_NOT  (** [not] / [neg]: classical negation keyword *)
  | KW_MOD
  | EOF

val to_string : t -> string

type pos = { line : int; col : int }
(** 1-based source position. *)

type located = { token : t; pos : pos }
