(** Transactions as functions (paper §2.1):

    {v transaction : databases -> responses x databases v}

    [translate] turns a symbolic query into such a function — the
    higher-order compilation step the paper highlights.  [apply_stream]
    applies a stream of transactions to the stream of database versions,
    returning the response stream and all intermediate versions (the
    "stream of databases" view of §6).

    This module is the {e sequential reference} semantics: set-semantic
    relations with schema checking, any persistent backend.  The lenient,
    task-graph execution of the same queries lives in the core library and
    is checked against this one. *)

open Fdb_relational

type response =
  | Inserted of bool  (** false: duplicate key, database unchanged *)
  | Found of Tuple.t option
  | Deleted of bool
  | Selected of Tuple.t list
  | Counted of int
  | Aggregated of Value.t option  (** sum/min/max result; None when empty *)
  | Updated of int  (** rows rewritten *)
  | Joined of Tuple.t list  (** concatenated matching pairs *)
  | Failed of string  (** unknown relation / column, schema mismatch *)

val response_equal : response -> response -> bool

val pp_response : Format.formatter -> response -> unit

type t = Database.t -> response * Database.t
(** A transaction.  Read-only queries return their argument database
    physically unchanged. *)

type tracker = {
  read_key : rel:string -> Value.t -> unit;
      (** a point access: key-existence check, point lookup, or delete *)
  read_range :
    rel:string -> lo:Relation.bound option -> hi:Relation.bound option -> unit;
      (** a planner range scan over the key order; [None] = open end *)
  read_all : rel:string -> unit;  (** a full scan of the relation *)
  write : rel:string -> removed:Tuple.t list -> added:Tuple.t list -> unit;
      (** tuples physically removed/added by the transaction — its
          replayable publication *)
}
(** Footprint observation callbacks.  Because a transaction is a pure
    function of its input version, the calls received during one
    application are exactly its data dependencies (reads) and its
    publication (writes) — the raw material for speculative conflict
    analysis in [lib/repair]. *)

val translate :
  ?tracker:tracker ->
  ?index:Fdb_index.Index.Session.use ->
  Fdb_query.Ast.query ->
  t
(** Compile a query.  Never raises: semantic errors become [Failed]
    responses (and leave the database unchanged).

    [tracker] receives every read span and write effect during
    application.  Observationally the tracked transaction is the
    untracked one: same response, same output database.  [Failed]
    outcomes report nothing (they are database-independent).

    [index] puts an index session in force: selects, counts and
    aggregates may be answered through the session's secondary, covering
    or derived indexes (observationally identical to the plain
    translation), and — when the session use has maintenance enabled —
    every write advances the session's indexes in lockstep with the base
    relation.  The catalog is read at translate time, the store at
    application time.  Indexed reads report a conservative
    whole-relation read to [tracker]. *)

val translate_string : string -> (t, string) result
(** Parse then translate. *)

val apply_stream : t list -> Database.t -> response list * Database.t list
(** [apply_stream txns db0] returns the responses and the versions
    [db1 .. dbn] (one per transaction). *)

val run_queries :
  Database.t -> Fdb_query.Ast.query list -> response list * Database.t
(** Convenience: translate then apply, keeping only the final version. *)
