(** Hand-written lexer for the query language. *)

type token =
  | IDENT of string
  | INT of int
  | REAL of float
  | STRING of string
  | KW of string  (** lower-cased keyword: insert, into, find, ... *)
  | LPAREN
  | RPAREN
  | COMMA
  | STAR
  | OP of string  (** = != < <= > >= *)

exception Lex_error of string * int  (** message, byte position *)

val keywords : string list
(** Reserved words; identifiers cannot collide with them. *)

val tokens : string -> token list
(** @raise Lex_error on an unrecognized character, an unterminated string
    or an integer literal outside the native [int] range. *)

val pp_token : Format.formatter -> token -> unit
