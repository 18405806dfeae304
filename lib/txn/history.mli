(** Complete archives of database versions (paper §3.3: "there is reason to
    believe that some applications will permit 'complete archives' to be
    constructed").

    Because every transaction produces a new version that shares almost all
    structure with its predecessor, retaining {e every} version is cheap —
    and gives time travel for free: any historical version answers
    read-only queries exactly as it did when it was current. *)

open Fdb_relational

type t

exception Empty_history
(** An archive with no versions is unrepresentable through {!val:create}
    and {!val:commit}; raised instead of an anonymous assertion failure if
    one is ever constructed (e.g. {!val:of_versions}[ []]), so the
    invariant violation is diagnosable at the API boundary. *)

val create : Database.t -> t
(** An archive whose version 0 is the initial database. *)

val of_versions : Database.t list -> t
(** An archive from an explicit newest-first version list.
    @raise Empty_history on the empty list. *)

val commit : t -> Txn.t -> t * Txn.response
(** Apply a transaction to the newest version and archive the result. *)

val commit_query : t -> Fdb_query.Ast.query -> t * Txn.response

val append : t -> Database.t -> t
(** Adopt an externally built version as the new newest one — the recovery
    path: a backup reconstructing the archive from a decoded checkpoint
    plus replayed log records appends versions it did not compute through
    {!val:commit}. *)

val of_queries : Database.t -> Fdb_query.Ast.query list -> t * Txn.response list

val length : t -> int
(** Number of versions, including version 0. *)

val version : t -> int -> Database.t
(** O(1) after the first access on a given archive value (an oldest-first
    array snapshot is built lazily and reused; committing yields a new
    archive with a fresh cache).
    @raise Invalid_argument when out of range. *)

val to_array : t -> Database.t array
(** All versions, oldest first ([to_array t].(i) = [version t i]).  The
    returned array is the accessor cache: treat it as read-only. *)

val latest : t -> Database.t

val query_at : t -> int -> Fdb_query.Ast.query -> Txn.response
(** Run a query against a historical version (read-only: the archive is
    not extended, and an update query's new version is discarded). *)

val changed_relations : t -> int -> string list
(** Relations physically replaced by version [i] (relative to [i - 1]),
    in slot order ({!Fdb_relational.Database.changed_slots}); empty for
    version 0 or read-only transactions.
    @raise Invalid_argument if the two versions' relation sets differ. *)

val sharing_ratio : t -> float
(** Across consecutive versions, the fraction of relation slots physically
    shared — the archive-cheapness measurement (1.0 = everything shared).
    @raise Invalid_argument if consecutive versions' relation sets differ. *)
