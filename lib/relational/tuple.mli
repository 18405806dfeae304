(** Tuples of data items.  By convention, component 0 is the key used for
    [find]/[delete] by key and for relation ordering. *)

type t = Value.t array

val make : Value.t list -> t

val key : t -> Value.t
(** @raise Invalid_argument on the empty tuple. *)

val arity : t -> int

val get : t -> int -> Value.t

val set : t -> int -> Value.t -> t
(** Copy with one component replaced. *)

val compare : t -> t -> int
(** Lexicographic, so key-first. *)

val equal : t -> t -> bool

val compare_key : t -> t -> int
(** Key components only. *)

val sort_keep_first : t list -> t list
(** Stable sort by key keeping the first tuple of each key: the state a
    sequential insert fold leaves, which skips keys already present.
    Strictly ascending in the key; O(n log n), tail-recursive.  Input that
    already is strictly ascending costs one O(n) pass and is returned
    physically, as every batch hands the previous batch's ordered state
    back in. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
