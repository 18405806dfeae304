(** Relation schemas: named, typed columns.  Column 0 is the key. *)

type ctype = CInt | CStr | CBool | CReal

type t

val make : name:string -> cols:(string * ctype) list -> t
(** @raise Invalid_argument on empty or duplicated column lists. *)

val name : t -> string

val columns : t -> (string * ctype) list

val arity : t -> int

val column_index : t -> string -> int option

val column_type : t -> int -> ctype option
(** The type of column [i], or [None] when [i] is out of range. *)

val matches : t -> Tuple.t -> bool
(** Arity and per-column type agreement. *)

val pp : Format.formatter -> t -> unit
