(** The versioned database: an immutable mapping from relation names to
    relations (paper §2.1).  Every update produces a new version that shares
    all untouched relations with its predecessor — the "selective object
    copying" the concurrency story depends on.

    A version is an array of relation slots in schema order plus a catalog
    (the names and a name -> slot table) that {!create} builds once and
    every later version shares: looking a relation up by name is one hash
    probe, and {!replace} copies only the R-word slot array. *)

type t

val create : ?backend:Relation.backend -> Schema.t list -> t
(** Empty relations, one per schema.
    @raise Invalid_argument on duplicate relation names. *)

val names : t -> string list

val slots : t -> (string * Relation.t) list
(** Every relation with its name, in slot order (the order of {!names}). *)

val contents : t -> (string * Tuple.t list) list
(** Every relation's tuples ({!Relation.to_list}) with its name, in slot
    order. *)

val relation : t -> string -> Relation.t option
(** O(1): one probe of the shared catalog. *)

val schema_of : t -> string -> Schema.t option

val replace : t -> string -> Relation.t -> t
(** New version with one slot replaced; all other slots physically shared.
    Copies the slot array (one word per relation) and nothing else.
    @raise Invalid_argument when the name is unknown. *)

val insert : t -> rel:string -> Tuple.t -> (t * bool, string) result
(** [Ok (db', added)]; [Error] on unknown relation or schema mismatch. *)

val delete : t -> rel:string -> key:Value.t -> (t * bool, string) result

val find : t -> rel:string -> key:Value.t -> (Tuple.t option, string) result

val total_tuples : t -> int

val load : t -> rel:string -> Tuple.t list -> (t, string) result
(** Bulk insert. *)

val of_tuples :
  ?backend:Relation.backend ->
  Schema.t list ->
  (string * Tuple.t list) list ->
  (t, string) result
(** [of_tuples schemas initial] is one relation per schema, each
    bulk-built by {!Relation.of_tuples} from its [initial] tuples (empty
    when absent): value-equal to a {!load} fold but O(n log n) per
    relation on the list, B-tree and column backends.  Names in [initial]
    with no schema are ignored.  [Error] carries the first schema mismatch.
    @raise Invalid_argument on duplicate relation names. *)

val shares_relation : old:t -> t -> string -> bool
(** Is the named relation physically the same object in both versions? *)

val changed_slots :
  old:t -> t -> (int * string * Relation.t * Relation.t) list
(** [(slot, name, old relation, new relation)] for every slot not
    physically shared between the two versions, in slot order: one
    pointer walk over the two slot arrays, O(R) in the number of relations.
    Versions descended from one {!create} share its catalog and skip the
    name check; versions from separate {!create} calls compare names.
    @raise Invalid_argument when the versions' relation sets differ. *)

val pp : Format.formatter -> t -> unit
