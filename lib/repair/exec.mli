(** Speculative batch execution with incremental repair.

    Transaction Repair (PAPERS.md) applied to the paper's pure-function
    transactions: a batch of [n] queries is executed {e speculatively in
    parallel}, every transaction against the batch-entry version, while a
    {!Fdb_repair.Footprint} records what each one read and wrote.  A
    fixpoint loop then repairs the damage instead of re-ordering or
    aborting:

    + find the transactions whose read footprint intersects a
      non-commuting earlier transaction's writes (the {e damaged} set);
    + the prefix before the first damaged transaction is final — commit
      it by replaying effects onto the running version (adopting the
      speculative relation slot outright when the slot it was built from
      is still current);
    + re-execute only the damaged transactions against the repaired
      prefix version, and iterate.

    The first damaged index strictly increases every round (a repaired
    transaction's base includes all final earlier writes), so the loop
    takes at most [n] rounds and converges to exactly the serial result.
    Results are deterministic: they depend only on the batch-entry version
    and the query list, never on domain scheduling.

    When a trace sink is installed ({!Fdb_obs.Trace.enabled}), speculative
    executions run inline on the coordinator instead of on the pool — the
    sink is not domain-safe — so traced runs double as a determinism
    check against pooled runs. *)

open Fdb_relational

type stats = {
  txns : int;
  rounds : int;  (** repair rounds (0 when the whole batch speculated clean) *)
  spec_hits : int;  (** transactions whose round-0 speculation was committed *)
  reexecs : int;  (** damaged transaction re-executions *)
  bypass_disjoint : int;  (** pair checks passed by key-span disjointness *)
  bypass_commute : int;  (** pair checks passed by semantic commutativity *)
  adopted_slots : int;  (** relation slots adopted O(1) instead of replayed *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit

type report = {
  responses : Fdb_txn.Txn.response list;  (** batch order *)
  history : Fdb_txn.History.t;
      (** batch-entry version plus one version per transaction — ordinary
          versions, indistinguishable from sequentially committed ones *)
  final : Database.t;
  stats : stats;
}

val run_batch :
  ?pool:Fdb_par.Pool.t ->
  ?domains:int ->
  ?index:Fdb_index.Index.Session.t ->
  ?batch_id:int ->
  Database.t ->
  Fdb_query.Ast.query list ->
  report
(** Execute one batch.  Equivalent to translating and applying the queries
    sequentially (the {!Fdb_txn.Txn} reference semantics).  With [?pool]
    absent a pool of [?domains] is created and torn down around the batch
    via {!Fdb_par.Pool.with_pool}.

    With [?index], speculative executions answer reads through the
    session's indexes (maintenance disabled — the store tracks the
    committed prefix, which is exactly every round's base version), and
    each commit advances the indexes from the transaction's recorded
    effects at the serial commit point, so indexes and base relations move
    in lockstep in batch order. *)

val chunks : int -> 'a list -> 'a list list
(** [chunks k xs] cuts [xs] into consecutive batches of [k] elements in
    order, the last one possibly shorter — how a stream is fed to
    {!run_batch}.  [k] must be >= 1. *)
