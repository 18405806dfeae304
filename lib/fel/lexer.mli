(** Mini-FEL lexer.

    Identifiers are alphanumeric words that may contain interior hyphens
    when followed by a letter ([apply-stream] is one identifier; [x - 1]
    and [x-1] are subtractions).  [;;] comments run to end of line. *)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | KW of string  (** if, then, else, RESULT *)
  | LBRACKET | RBRACKET
  | LBRACE | RBRACE
  | LPAREN | RPAREN
  | COMMA
  | COLON  (** application *)
  | CARET  (** followed-by *)
  | PARPAR  (** apply-to-all *)
  | OP of string  (** = != < <= > >= + - * / *)

exception Lex_error of string * int

val tokens : string -> token list
(** @raise Lex_error on an unexpected character, an unterminated string or
    an integer literal outside the native [int] range. *)

val pp_token : Format.formatter -> token -> unit
