(** The production traffic driver: run a generated open-loop stream
    ({!Fdb_workload.Openloop}) through an execution mode and report
    latency percentiles and sustained throughput from the
    {!Fdb_obs.Metrics} histogram shards.

    Every mode starts from the plan's initial image bulk-loaded on the
    chosen relation backend (untimed).  [Sequential] applies the stream one
    transaction at a time through {!Fdb_txn.Txn.translate}, rolling the
    version chain forward without retention — the only mode with true
    per-transaction service times.  [Batched] cuts the stream into
    microbatches and runs each through {!Pipeline.execute}, timing whole
    batches; each batch starts from the [Database.t] the previous one
    left, so state stays on the chosen backend and is never rebuilt
    between batches.  The executor's pool is the caller's.  An executor
    carrying an index session must have opened it on the plan's initial
    image on the same backend. *)

type mode = Sequential | Batched of Pipeline.executor

val mode_name : mode -> string

type phase_stats = {
  ph_name : string;
  ph_txns : int;
  ph_p50_ns : float;
  ph_p99_ns : float;
  ph_p999_ns : float;
}

type report = {
  tr_mode : string;
  tr_backend : string;
  tr_txns : int;
  tr_throughput : float;
      (** transactions per second of run time (the initial load is not
          timed) *)
  tr_latency_unit : string;
      (** what the percentiles measure: ["txn"] (Sequential) or
          ["microbatch"] (the batched modes) *)
  tr_p50_ns : float;
  tr_p99_ns : float;
  tr_p999_ns : float;
  tr_failed : int;  (** [Failed] responses seen *)
  tr_final_tuples : int;
  tr_final_digest : string;
      (** content digest of the final state — equal streams must produce
          equal digests across backends and modes *)
  tr_phases : phase_stats list;  (** per-phase percentiles, Sequential only *)
}

val drive :
  ?mode:mode ->
  ?microbatch:int ->
  ?backend:Fdb_relational.Relation.backend ->
  ?clock:(unit -> int64) ->
  Fdb_workload.Openloop.t ->
  report
(** Execute the plan.  Defaults: [Sequential], microbatch 512, btree-8
    backend, a [gettimeofday]-derived nanosecond clock (microsecond
    resolution — pass a real monotonic nanosecond clock for
    sub-microsecond service times).
    @raise Invalid_argument when [microbatch < 1] or the plan's initial
    image does not match its schemas. *)
