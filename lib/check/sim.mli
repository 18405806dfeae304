(** Fault-injecting end-to-end simulation.

    The oracle's client-side contract — per-stream order in, per-stream
    order out — has to survive a real transport.  This driver runs a
    generated scenario through the network stack: clients sit on the leaves
    of a star topology (client 0 shares the hub with the primary,
    exercising the src = dst local hand-off), queries travel to the primary
    over {!Fdb_net.Reliable} (itself over {!Fdb_net.Fabric}), and three
    seeded fault kinds are injected:

    - {b drop}: the lossy medium loses one in [drop_one_in] arrivals
      (data and acks alike); Reliable retransmits.
    - {b duplicate}: one in [dup_one_in] queries is sent twice with the
      same (client, seq); the primary must deduplicate.
    - {b reorder}: one in [delay_one_in] queries is held back up to
      [max_delay] scheduler ticks before being handed to the transport, so
      a client's later query can arrive first; the primary reassembles by
      per-client sequence number before committing anything.

    The primary applies queries under the sequential reference semantics
    in reassembled arrival order — a nondeterministic (but seeded) merge of
    the client streams — and the resulting observation must pass the
    {!Oracle}. *)

type faults = {
  drop_one_in : int;  (** 0 disables; must not be 1 *)
  dup_one_in : int;  (** 0 disables *)
  delay_one_in : int;  (** 0 disables *)
  max_delay : int;  (** max ticks a delayed query is held *)
  crash : bool;
      (** kill the primary at a seeded point and fail over — see below *)
}

val no_faults : faults

val default_faults : faults
(** drop 1/5, duplicate 1/6, delay 1/4 up to 3 ticks, no crash. *)

type outcome = {
  verdict : Oracle.verdict;
  applied : int;  (** queries committed at the (surviving) primary *)
  dup_suppressed : int;  (** application-level duplicates discarded *)
  delayed : int;  (** queries that took the reorder path *)
  recovery : Fdb_replica.Replica.report option;
      (** full failover report when [crash] was set *)
  net : Fdb_net.Reliable.stats;
  trace : Fdb_obs.Event.t list;
      (** everything the stack emitted while executing (the oracle-search
          phase is not recorded); already checked against
          {!Trace_oracle.check} — [run] raises [Failure] on violations *)
  metrics : Fdb_obs.Metrics.snapshot;
      (** the metrics this run alone recorded: the run executes under
          {!Fdb_obs.Metrics.scoped}, so identical (faults, seed, scenario)
          yield identical snapshots no matter what ran before — no
          registry bleed across sweeps or test suites — and the caller's
          accumulated totals are restored afterwards *)
}

exception
  Lost_queries of {
    missing : (int * int) list;  (** (client, seq) never committed *)
    buffered : int;  (** gap-buffered queries stuck at quiescence *)
    stats : Fdb_net.Reliable.stats;
    trace_tail : string list;  (** last captured events, oldest first *)
  }
(** A transport bug: the run quiesced but some query never committed.
    Carries exactly which (client, seq) pairs are unaccounted for plus the
    channel stats, so a failing seed can be replayed. *)

val run :
  ?faults:faults ->
  ?recover_config:Fdb_replica.Replica.config ->
  seed:int ->
  Gen.scenario ->
  outcome
(** Deterministic in (faults, seed, scenario).

    With [crash] set, the scenario instead runs through
    {!Fdb_replica.Replica}: the primary is killed at a seeded crash point
    (mid-stream, mid-checkpoint or mid-replay, chosen by [seed mod 3]) and
    the backup takes over.  [recover_config] seeds the replica
    configuration (its [drop_one_in], [seed] and [crash] fields are
    overridden from the fault spec).  Beyond the oracle verdict, the
    crash path asserts the failover invariants — no acked commit lost or
    doubly applied, replay exactly the log suffix past the last installed
    checkpoint, no replay divergence — and raises [Failure] on any
    violation.  The other fault knobs ([dup_one_in], [delay_one_in]) are
    client-behaviour faults that the replica's retry layer subsumes, and
    are ignored on this path.

    @raise Invalid_argument on a bad fault spec.
    @raise Lost_queries if the network quiesced but lost a query.
    @raise Failure if the network fails to quiesce or a failover
    invariant is violated. *)

type repair_outcome = {
  repair_verdict : Oracle.verdict;
  repair_stats : Fdb_repair.Exec.stats;  (** summed over batches *)
  repair_trace : Fdb_obs.Event.t list;
      (** from the traced (inline) run; checked against
          {!Trace_oracle.check} including [repair_convergence] *)
  repair_metrics : Fdb_obs.Metrics.snapshot;
}

val run_repair :
  ?pool:Fdb_par.Pool.t ->
  ?domains:int ->
  ?batch:int ->
  ?max_states:int ->
  seed:int ->
  Gen.scenario ->
  repair_outcome
(** Differential sweep of the speculative repair executor
    ({!Fdb_repair.Exec}).  The scenario's client streams are merged by a
    seeded arbiter, cut into batches of [batch] (default 8), and run
    three ways: on the domain pool (parallel speculation), inline under a
    recording trace sink, and through the ideal sequential engine
    ({!Fdb_txn.Txn.run_queries}).  All three must agree on every response
    and on the final database, the trace must satisfy every
    {!Trace_oracle} law, and the per-client observation must be accepted
    by the serializability {!Oracle} ([max_states] bounds its search).

    Runs under {!Fdb_obs.Metrics.scoped} like {!val:run}.  When [pool] is
    absent a pool of [domains] is created via {!Fdb_par.Pool.with_pool},
    whose bracket joins the worker domains even when the scenario raises
    — every failure path raises {e inside} the bracket.

    @raise Failure on any divergence, trace violation, or non-accepted
    oracle verdict (the message carries [seed] for replay).
    @raise Invalid_argument when [batch < 1]. *)

(** {1 Sharded two-level serialization} *)

type shard_outcome = {
  shard_verdict : Oracle.verdict;
  shard_stats : Fdb_shard.Shard.stats;
  shard_streams : int array;
      (** shard-local commit stream length per shard *)
  shard_trace : Fdb_obs.Event.t list;
      (** from the traced run; checked against {!Trace_oracle.check}
          including [shard_serializability] *)
  shard_metrics : Fdb_obs.Metrics.snapshot;
}

val cross_shardify : ratio:float -> seed:int -> Gen.scenario -> Gen.scenario
(** Rewrite a generated scenario to a controlled cross-shard ratio: each
    query slot is independently forced to a cross-relation join with
    probability [ratio], and below the threshold any native
    cross-relation join is folded onto its left relation — so
    [ratio = 0.0] carries {e no} cross-shard work and the knob is
    monotone.  Deterministic in [seed].
    @raise Invalid_argument when [ratio] is outside [[0, 1]]. *)

val run_sharded :
  ?policy:Fdb_merge.Merge.policy ->
  ?replicate:bool ->
  ?max_states:int ->
  shards:int ->
  seed:int ->
  Gen.scenario ->
  shard_outcome
(** Differential sweep of the sharded executor ({!Fdb_shard.Shard}).
    The scenario runs through {!Fdb_shard.Shard.run} under a recording
    trace sink ([policy] defaults to a [seed]-derived seeded merge), and
    must survive four independent checks:

    - the trace satisfies every {!Trace_oracle} law, including
      [shard_serializability];
    - {b sequential differential}: responses and final database equal
      the ideal engine's ({!Fdb_txn.Txn.run_queries}) over the same
      router order — and for [shards = 1] the rendered output bytes are
      identical to the unsharded pipeline's, not merely equivalent;
    - {b adversarial replay}: re-executing
      {!Fdb_shard.Shard.reorder_schedule} (each epoch reordered
      shard-major) reproduces every response and the final database —
      the soundness witness for every bypass the analysis granted;
    - {b serializability}: the per-client observation is accepted by the
      {!Oracle} ([max_states] bounds its search).

    With [replicate] set, each shard's local commit stream additionally
    drives a {!Fdb_replica.Replica.run} over its slice: the surviving
    replica state must equal the final slice, no acked commit may be
    lost or doubly applied, and the replica's responses must reproduce
    the sharded run's — the composition of partitioning with per-shard
    primary/backup replication.

    Runs under {!Fdb_obs.Metrics.scoped} like {!val:run}.
    @raise Failure on any divergence (the message carries [seed]).
    @raise Invalid_argument when [shards < 1]. *)

(** {1 Crash-restart disk recovery} *)

type disk_fault =
  | Clean_kill  (** sync, then kill — nothing may be lost *)
  | Truncate_mid_frame  (** cut the tail segment inside a frame *)
  | Bit_flip  (** flip one bit somewhere past the synced mark *)
  | Duplicate_tail  (** re-append the last whole frame verbatim *)
  | Torn_differential
      (** checkpoint at the kill point until a differential is written,
          and kill while it is: its head is torn at a random byte *)
  | Kill_before_delete
      (** checkpoint until a differential is written and synced, and kill
          before the checkpoint deletes the segments it supersedes *)
  | Torn_base
      (** checkpoint until a base is written (at the latest the
          {!Fdb_wal.Wal.base_every}th), and kill while it is: its head is
          torn at a random byte, in any of its chunks *)

val all_disk_faults : disk_fault list
val disk_fault_name : disk_fault -> string
val disk_fault_of_name : string -> disk_fault option

type disk_outcome = {
  disk_appended : int;  (** versions logged before the kill *)
  disk_durable : int;  (** newest version the fsync discipline promised *)
  disk_recovered : int;  (** newest version the first recovery rebuilt *)
  disk_base : int;  (** checkpoint version the first recovery started from *)
  disk_stop : string;  (** why replay stopped (["clean"] if it didn't) *)
  disk_segments : int;  (** segment files present at the first recovery *)
  disk_resumed : int;  (** versions appended after restart *)
  disk_fired : bool;
      (** the kill happened: always for the first four faults; for a
          checkpoint fault, only if its frame kind was met — a base whose
          frame is under four times a differential's never lets one be
          written *)
  disk_trace : Fdb_obs.Event.t list;
      (** already checked against {!Trace_oracle.check}, including the
          [durability] law *)
  disk_metrics : Fdb_obs.Metrics.snapshot;
}

val run_disk :
  ?sync_every:int ->
  ?checkpoint_every:int ->
  fault:disk_fault ->
  seed:int ->
  Gen.scenario ->
  disk_outcome
(** Crash-restart differential sweep of the durable version log
    ({!Fdb_wal.Wal}).  The scenario's streams are merged by a seeded
    arbiter and committed through the sequential reference engine with a
    WAL sink over the in-memory torn-write store; at a seeded kill point
    the store crashes (keeping the synced prefix plus a random prefix of
    the unsynced suffix), the surviving tail is doctored according to
    [fault], and {!Fdb_wal.Wal.recover} rebuilds the state.

    The recovered history is compared differentially against the
    pre-crash run: every version the fsync discipline promised must be
    back, nothing past the last append may appear, and each recovered
    version must equal — by {!Oracle.db_equal} — the version the
    pre-crash engine committed.  The run then {e resumes} on the
    recovered state, commits the remaining queries, recovers once more
    and re-verifies.  The whole run executes under a recording trace
    sink and {!Fdb_obs.Metrics.scoped}; the trace must satisfy every
    {!Trace_oracle} law including [durability].

    Deterministic in ([sync_every], [checkpoint_every], [fault], [seed],
    scenario).  [sync_every] defaults to 3 (so a torn unsynced tail
    actually exists); [checkpoint_every] defaults to 0 (never compact).

    @raise Failure on any recovery divergence or trace violation (the
    message carries [seed] for replay). *)
