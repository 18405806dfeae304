(** The production traffic driver: run a generated open-loop stream
    ({!Fdb_workload.Openloop}) through an execution mode and report
    latency percentiles and sustained throughput from the
    {!Fdb_obs.Metrics} histogram shards.

    [Sequential] applies the stream one transaction at a time through the
    reference interpreter {!Fdb_txn.Txn.translate} on the chosen relation
    backend, rolling the version chain forward without retention — the
    scalable path, and the only mode with true per-transaction service
    times.  The other modes cut the stream into microbatches and push each
    through the corresponding {!Pipeline} executor ([run_parallel],
    [run_repair], [run_sharded]), timing whole batches; they exist for
    differential smoke and mode comparison at moderate scale, since the
    pipeline modes re-materialize state between batches. *)

type mode =
  | Sequential
  | Parallel of { domains : int option }
  | Repair of { batch : int }  (** speculative repair batch size *)
  | Sharded of { shards : int }

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
