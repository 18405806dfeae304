(** Sharded serialization: N merge points with a commutativity-aware
    global spine.

    The paper's single primary-site merge is the scale ceiling — one
    serial stream cannot serve heavy traffic.  This module partitions the
    relations across [shards] sites.  Each site owns a slice of the
    database, a shard-local commit stream and its own version archive
    ({!Fdb_txn.History.t}); the slices evolve only through the site's
    commit stream, so shard-local work never coordinates.

    Serialization is two-level:

    - {b Level 1 — the router}: the client streams are arbitrated once by
      a {!Fdb_merge.Merge.policy} (exactly the unsharded pipeline's merge
      point).  Every commit a shard releases is a subsequence of this
      router order, so the union of the shard-local orders is acyclic by
      construction.
    - {b Level 2 — the global spine}: a transaction whose statically
      touched relations span more than one shard is a {e spine candidate}.
      Its footprint ({!Fdb_repair.Footprint}, via
      {!Fdb_txn.Txn.translate}[ ~tracker]) is compared against everything
      committed on its shards since the last global barrier (the open
      {e epoch}): if every such pair commutes — disjoint relations,
      disjoint key sets, or semantic commutation ("Limits of
      Commutativity", PAPERS.md) — the transaction {b bypasses} the spine
      and commits shard-locally.  Otherwise it is serialized through the
      global arbiter: it takes the next global sequence number and acts as
      a barrier closing the epoch on {e every} shard.

    The bypass claim — that within an epoch the shards could have
    executed independently — is checkable: {!val:reorder_schedule} builds
    an adversarial shard-major reordering of each epoch, and a sound
    analysis guarantees replaying it yields the same responses and final
    database.  Any pair the reorder swaps either shares no shard (the
    partition makes them commute trivially) or was explicitly checked
    when the later one committed. *)

open Fdb_relational
module Ast = Fdb_query.Ast
module Merge = Fdb_merge.Merge
module Txn = Fdb_txn.Txn
module History = Fdb_txn.History
module Footprint = Fdb_repair.Footprint

val shard_of : shards:int -> string -> int
(** Deterministic placement of a relation name (a stable string hash,
    independent of [Hashtbl.hash]).
    @raise Invalid_argument when [shards < 1]. *)

val shards_of_query : shards:int -> Ast.query -> int list
(** Sorted, deduplicated shard set of the relations the query names
    statically ({!Ast.relations_touched}); [[0]] mapped-to for a query
    touching no relation.  Unknown relation names still place — the owning
    shard answers [Failed] exactly as the unsharded engine does. *)

val slice : shards:int -> Database.t -> Database.t array
(** Partition a database into per-shard slices: shard [s] owns exactly
    the relations {!val:shard_of} places there, physically sharing their
    slots with the source.
    @raise Invalid_argument when [shards < 1]. *)

val pair_commutes :
  schema_of:(string -> Schema.t option) ->
  Footprint.t * Ast.query ->
  Footprint.t * Ast.query ->
  bool
(** Do the two executed transactions commute?  True when, in {e both}
    directions, the writer's published keys miss every read span of the
    reader ({!Footprint.overlap} is [No_overlap] or [Key_disjoint]) or the
    pair commutes semantically ({!Footprint.commutes}).  Because every
    write is preceded by a tracked read of the written key, write-write
    collisions surface as read overlaps — a [true] verdict means applying
    the pair in either order yields the same responses and final
    database. *)

type stats = {
  txns : int;
  local : int;  (** single-shard commits (never spine candidates) *)
  bypassed : int;  (** cross-shard commits that bypassed the spine *)
  spine : int;  (** cross-shard commits serialized by the global arbiter *)
  conflicts : int;  (** non-commuting pairs found by the analysis *)
  max_epoch : int;  (** largest number of commits between two barriers *)
}

val pp_stats : Format.formatter -> stats -> unit

type report = {
  shards : int;
  queries : Ast.query array;  (** router order *)
  tags : int array;  (** client of each query, router order *)
  responses : Txn.response array;  (** router order *)
  final : Database.t;
      (** the shard slices reassembled over the initial database *)
  shard_dbs : Database.t array;  (** final slice per shard *)
  histories : History.t array;
      (** per-shard version archives; version 0 is the initial slice and
          a new version is archived per commit that changed the slice *)
  commit_log : int list array;
      (** per shard, router-order indices committed there, in commit
          order — each is a subsequence of the router order *)
  local_queries : Ast.query list array;
      (** per shard, the single-shard queries it committed, in order —
          the replication stream for the shard's primary/backup pair *)
  foreign_writes : bool array;
      (** did any cross-shard transaction write into this slice?  (Never,
          for workloads whose only multi-relation query is a join.) *)
  versions : Database.t list;
      (** updates-only chain of reassembled global versions, oldest
          first, excluding the initial database — the durability feed *)
  epochs : (int list * int option) list;
      (** per epoch: bypassed/local members (router order) and the spine
          transaction that closed it, [None] for the final open epoch *)
  stats : stats;
}

val run_merged :
  shards:int -> initial:Database.t -> Ast.query Merge.tagged list -> report
(** Execute an already-arbitrated stream (tags are client ids) over
    [shards] slices of [initial].  Deterministic; emits [Shard_*] trace
    events when tracing is enabled ([Shard_commit] at [site = shard]).
    @raise Invalid_argument when [shards < 1]. *)

val run :
  ?policy:Merge.policy ->
  shards:int ->
  initial:Database.t ->
  Ast.query list list ->
  report
(** Arbitrate the client streams with [policy] (default [Arrival_order])
    — the level-1 merge — then {!val:run_merged}. *)

val reorder_schedule : report -> (int * int * Ast.query) list
(** The adversarial replay order: within each epoch the members are
    stably reordered shard-major (by lowest touched shard), spine
    transactions stay put as barriers.  Elements are
    [(router_index, client_tag, query)].  Replaying this schedule against
    the same initial database must reproduce [responses] (matched by
    router index) and [final] — the soundness check for every bypass the
    analysis granted. *)
