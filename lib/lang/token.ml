type t =
  | IDENT of string
  | VAR of string
  | INT of int
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | DOT
  | COLON
  | ARROW
  | MINUS
  | TILDE
  | PLUS
  | STAR
  | SLASH
  | LT
  | GT
  | LE
  | GE
  | EQ
  | NEQ
  | KW_COMPONENT
  | KW_EXTENDS
  | KW_ORDER
  | KW_PREFER
  | KW_NOT
  | KW_MOD
  | EOF

let to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | VAR s -> Printf.sprintf "variable %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | COLON -> "':'"
  | ARROW -> "':-'"
  | MINUS -> "'-'"
  | TILDE -> "'~'"
  | PLUS -> "'+'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | LT -> "'<'"
  | GT -> "'>'"
  | LE -> "'<='"
  | GE -> "'>='"
  | EQ -> "'='"
  | NEQ -> "'!='"
  | KW_COMPONENT -> "'component'"
  | KW_EXTENDS -> "'extends'"
  | KW_ORDER -> "'order'"
  | KW_PREFER -> "'prefer'"
  | KW_NOT -> "'not'"
  | KW_MOD -> "'mod'"
  | EOF -> "end of input"

type pos = { line : int; col : int }
type located = { token : t; pos : pos }
