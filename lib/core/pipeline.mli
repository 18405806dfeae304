(** The lenient transaction pipeline — the paper's system.

    A merged, tagged query stream is processed "sequentially" by a chain of
    dispatch tasks (one per transaction, the unfolding of [apply-stream]);
    each dispatch immediately constructs the next database version as a
    tuple of relation slots, sharing every untouched slot, and launches the
    transaction's cell-level work.  All synchronization is implicit in the
    single-assignment cells: scans chase inserts one cell behind
    (pipelining), independent scans flood, and nothing ever locks.

    Execution can be measured on the ideal machine (ply widths — Table I)
    or on a Rediflow machine over a concrete topology (speedup — Tables II
    and III).

    Two insert semantics are provided:
    - {!constructor:Prepend} — the 1985 experiment's linked-list multiset
      semantics: insert is a 1-task cons at the head, find scans the whole
      relation collecting matches;
    - {!constructor:Ordered_unique} — keyed-set semantics over sorted
      lists, matching the production interpreter [Fdb_txn.Txn]: inserts
      copy up to the splice point and reject duplicates, probes stop at the
      ordered position.

    Either way, {!val:reference} gives the pure sequential meaning of the
    same stream and {!val:check_serializable} verifies the lenient run
    against it — the paper's serializability claim, as an executable
    property. *)

open Fdb_kernel
open Fdb_relational
open Fdb_rediflow

type semantics = Prepend | Ordered_unique

type mode = Ideal | On_machine of Machine.config

type response =
  | Inserted of bool
  | Found of Tuple.t list  (** every tuple with the probed key *)
  | Deleted of int  (** number of tuples removed *)
  | Selected of Tuple.t list
  | Counted of int
  | Aggregated of Value.t option  (** sum/min/max; [None] when empty *)
  | Updated of int  (** rows rewritten *)
  | Joined of Tuple.t list
  | Failed of string

val response_equal : response -> response -> bool

val pp_response : Format.formatter -> response -> unit

type db_spec = {
  schemas : Schema.t list;
  initial : (string * Tuple.t list) list;
}

val db_spec_of_workload : Fdb_workload.Workload.t -> db_spec

val initial_database : db_spec -> Database.t
(** The durable image of the initial state: relations as keyed sets on the
    btree-8 backend, the first tuple kept per duplicate key — exactly the
    state every ordered-unique executor starts from, and value-equal to a
    {!Database.load} fold, but built by {!Relation.of_tuples} per relation:
    O(n log n), and O(n) when each relation's tuples are already ascending
    by key.  Build it once and hand it to {!val:execute}, which passes its
    [final] database on to the next call without a rebuild.  Pass it to
    {!Fdb_wal.Wal.create} to open a durability sink ([?wal] below) whose
    genesis checkpoint matches the run.
    @raise Invalid_argument when the spec's initial tuples do not match
    their schema. *)

type report = {
  responses : (int * response) list;  (** (tag, response), merged order *)
  stats : Engine.run_stats;
  machine : Machine.machine_stats option;
  speedup : float option;  (** tasks / makespan, machine mode only *)
  final_db : (string * Tuple.t list) list;
      (** contents of the last database version, per relation *)
}

val responses_for : tag:int -> report -> response list
(** Route a client's substream of responses (choose on the tagged response
    stream). *)

val run :
  ?semantics:semantics ->
  ?mode:mode ->
  ?trace:bool ->
  ?primary:int ->
  ?wal:Fdb_wal.Wal.writer ->
  db_spec ->
  (int * Fdb_query.Ast.query) list ->
  report
(** Execute the merged stream.  Defaults: [Prepend], [Ideal], no trace,
    primary site 0.  In machine mode the initial relation cells are dealt
    round-robin across the PEs and dispatch runs on the primary site.

    [wal] attaches a durability sink: after the engine quiesces, every
    version the dispatch chain produced (in dispatch order, skipping
    versions whose contents did not actually change) is appended to the
    durable log and the log is synced, so a crash after [run] returns
    loses nothing.  The writer should be opened on
    {!val:initial_database}[ spec] so the genesis checkpoint matches.
    @raise Failure if the run leaves a response unresolved (an engine bug —
    surfaced loudly rather than silently).
    @raise Invalid_argument if [wal] is combined with [Prepend] semantics
    (the durable log stores relations as keyed sets). *)

val run_streams :
  ?semantics:semantics ->
  ?mode:mode ->
  ?trace:bool ->
  ?primary:int ->
  ?wal:Fdb_wal.Wal.writer ->
  db_spec ->
  Fdb_query.Ast.query list list ->
  report * (int * Fdb_query.Ast.query) list
(** The whole architecture as one task graph: each client stream is a
    lenient producer (one query per cycle), the engine-level merge arbiter
    ({!Fdb_lenient.Lmerge}) interleaves them by arrival, and the dispatch
    chain chases the merged stream as it materializes.  Returns the report
    and the merged order the arbiter actually produced (for checking
    against {!val:reference}).  [wal] behaves as in {!val:run}. *)

val reference :
  ?semantics:semantics ->
  db_spec ->
  (int * Fdb_query.Ast.query) list ->
  (int * response) list
(** The sequential meaning of the merged stream: what processing it
    one-transaction-at-a-time would answer. *)

val check_serializable :
  ?semantics:semantics ->
  ?mode:mode ->
  db_spec ->
  (int * Fdb_query.Ast.query) list ->
  (bool, string) result
(** Run both and compare responses position by position; [Error] carries
    the first mismatch, pretty-printed. *)

(** {1 The executors over [Database.t]}

    Three execution modes on real OCaml 5 domains, as opposed to the
    {e simulated} parallelism the engine measures.  Each is the paper's
    transaction type over a whole batch, [Database.t -> responses *
    Database.t]: {!val:execute} takes the version to start from and
    returns the version it left, so consecutive batches hand state over
    without a copy — every relation slot a batch does not write is
    physically shared between its input and its [final].  Responses are
    {!Fdb_txn.Txn.response}s; {!val:pipeline_responses} converts them for
    comparison with {!val:reference}[ ~semantics:Ordered_unique], which
    every mode must equal on the same inputs (the differential tests
    assert exactly this).  Relations are keyed sets, so every mode is
    inherently ordered-unique. *)

type executor =
  | Parallel of {
      pool : Fdb_par.Pool.t;
      index : Fdb_index.Index.Session.t option;
    }
      (** A scheduler over {!Fdb_txn.Txn.translate}: every write runs
          inline on the dispatching thread (a cheap path-copying version
          construction), every read is one pool task applying its
          transaction to the version current at its dispatch.  Versions
          are immutable, so a read never sees a later write and nothing
          locks: transaction [i+1] proceeds while transaction [i]'s read
          is still in flight — the paper's pipelining across real cores,
          and the reader contract of a logical update view.  With [index],
          writes maintain the session's indexes inline and each read is
          planned through a frozen copy of the session captured at its
          dispatch.  Once every transaction is dispatched, the
          dispatching domain runs queued reads itself in
          {!Fdb_par.Pool.wait}, so a pool of [n] workers answers reads on
          [n + 1] domains.  When a trace sink is installed
          ({!Fdb_obs.Trace.enabled}) reads run inline too — the sink is
          not domain-safe. *)
  | Repair of {
      pool : Fdb_par.Pool.t;
      batch : int;
      index : Fdb_index.Index.Session.t option;
    }
      (** Speculative parallel batches with incremental repair
          ({!Fdb_repair.Exec}): the stream is cut into batches of [batch]
          queries; each runs all its transactions in parallel against the
          batch-entry version and repairs footprint conflicts to the serial
          fixpoint.  Each round's transactions are pool tasks, and the
          coordinating domain runs its share of them in
          {!Fdb_par.Pool.wait}; traced runs execute them inline.  [index]
          is threaded through every batch as in
          {!Fdb_repair.Exec.run_batch}: speculative reads go through the
          indexes, commits advance them at the serial commit point. *)
  | Sharded of { shards : int }
      (** Multi-site serialization with a commutativity-aware bypass
          ({!Fdb_shard.Shard}): the already-merged stream (tags are client
          ids — the level-1 router order) runs over [shards] relation
          slices, each with its own merge point and version archive;
          cross-shard transactions whose footprints commute with the open
          epoch bypass the global spine, the rest are serialized through
          it. *)

type outcome = {
  responses : (int * Fdb_txn.Txn.response) list;
      (** (tag, response), stream order *)
  final : Database.t;  (** the version the last transaction left *)
  versions : int;
      (** the input version plus every version the run hands to [?wal]:
          one per changing write, in every mode *)
}

val execute :
  ?wal:Fdb_wal.Wal.writer ->
  executor ->
  Database.t ->
  (int * Fdb_query.Ast.query) list ->
  outcome
(** Run the merged stream from the given version.  The pool is the
    caller's and stays running; read its {!Fdb_par.Pool.stats} for task
    and steal counts, and the [repair.*]/[shard.*] metrics for the modes'
    own counters.  [wal] attaches a durability sink, opened on the
    version the first call starts from: Parallel appends each changed
    version inline on the dispatch thread (so the log order is the stream
    order) and syncs before the pool drains; Repair appends each batch's
    repaired version chain once the batch reaches its fixpoint; Sharded
    appends the reassembled global version chain.  The log is synced
    before [execute] returns.
    @raise Invalid_argument when a Repair [batch < 1] or [shards < 1]. *)

val pipeline_responses : outcome -> (int * response) list
(** The outcome's responses in this module's response type, for comparison
    with {!val:reference} and {!val:run}. *)

(** {2 [db_spec] wrappers}

    The benchmark's entry points: each builds {!val:initial_database}[
    spec], runs {!val:execute} once and lists the final database.  They
    exist until the benchmark hands state over as [Database.t]. *)

type par_report = {
  par_responses : (int * response) list;  (** (tag, response), stream order *)
  par_final_db : (string * Tuple.t list) list;
}

val run_parallel :
  ?semantics:semantics ->
  ?domains:int ->
  ?pool:Fdb_par.Pool.t ->
  db_spec ->
  (int * Fdb_query.Ast.query) list ->
  par_report
(** {!constructor:Parallel} from [initial_database spec], without index.
    [semantics] must be [Ordered_unique] (the default).  Passing [pool]
    reuses an existing pool (and leaves it running); otherwise a fresh
    pool of [domains] (default {!Fdb_par.Pool.create}'s) is created and
    shut down around the run.
    @raise Invalid_argument on [Prepend] semantics. *)

type repair_report = {
  rep_responses : (int * response) list;  (** (tag, response), stream order *)
  rep_final_db : (string * Tuple.t list) list;
}

val run_repair :
  batch:int ->
  ?pool:Fdb_par.Pool.t ->
  db_spec ->
  (int * Fdb_query.Ast.query) list ->
  repair_report
(** {!constructor:Repair} from [initial_database spec], without index;
    pool reuse follows {!val:run_parallel}.
    @raise Invalid_argument when [batch < 1]. *)
