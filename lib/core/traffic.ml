open Fdb_relational
module Openloop = Fdb_workload.Openloop
module Metrics = Fdb_obs.Metrics
module Txn = Fdb_txn.Txn

type mode =
  | Sequential
  | Parallel of { domains : int option }
  | Repair of { batch : int }
  | Sharded of { shards : int }

let mode_name = function
  | Sequential -> "sequential"
  | Parallel _ -> "parallel"
  | Repair _ -> "repair"
  | Sharded _ -> "sharded"

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
  tr_latency_unit : string;
  tr_p50_ns : float;
  tr_p99_ns : float;
  tr_p999_ns : float;
  tr_failed : int;
  tr_final_tuples : int;
  tr_final_digest : string;
  tr_phases : phase_stats list;
}

let latency_hist = "traffic.latency_ns"

let phase_hist name = "traffic.phase." ^ name ^ ".latency_ns"

(* Wall-clock nanoseconds.  [gettimeofday] only resolves microseconds, so
   sub-microsecond service times land in the lowest buckets; callers that
   care pass a real monotonic nanosecond clock. *)
let default_clock () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* Content digest of a final state, for cross-backend and cross-mode
   differential checks: equal streams must land equal states no matter
   which layout or executor processed them. *)
let digest_contents per_relation =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, tuples) ->
      Buffer.add_string b name;
      Buffer.add_char b '\n';
      List.iter
        (fun tup ->
          Buffer.add_string b (Tuple.to_string tup);
          Buffer.add_char b '\n')
        tuples)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) per_relation);
  Digest.to_hex (Digest.string (Buffer.contents b))

let db_contents db =
  List.map
    (fun name ->
      match Database.relation db name with
      | Some r -> (name, Relation.to_list r)
      | None -> (name, []))
    (Database.names db)

(* Bulk-load the initial image on the chosen backend.  [Database.of_tuples]
   takes the column backend's O(n log n) pack path, so million-tuple loads
   do not rebuild a chunk per tuple. *)
let initial_db ~backend (plan : Openloop.t) =
  match
    Database.of_tuples ~backend plan.Openloop.schemas plan.Openloop.initial
  with
  | Ok db -> db
  | Error e -> invalid_arg ("Traffic.drive: " ^ e)

let percentiles stats =
  ( Metrics.percentile stats 0.50,
    Metrics.percentile stats 0.99,
    Metrics.percentile stats 0.999 )

let stats_of snap name =
  List.assoc_opt name snap.Metrics.histograms
  |> Option.value
       ~default:{ Metrics.count = 0; sum = 0; min = 0; max = 0; buckets = [] }

(* One transaction at a time against the chosen backend — the sequential
   reference path, and the only mode with true per-transaction service
   times.  The database version chain is rolled forward without retention,
   so million-tuple runs hold one version (plus the in-flight copy). *)
let run_sequential ~clock (plan : Openloop.t) db0 =
  let h = Metrics.histogram latency_hist in
  let phase_hists =
    List.map
      (fun (name, start, stop) ->
        (Metrics.histogram (phase_hist name), start, stop))
      plan.Openloop.phase_bounds
  in
  let db = ref db0 in
  let failed = ref 0 in
  let n = Array.length plan.Openloop.stream in
  let t0 = clock () in
  for i = 0 to n - 1 do
    let (_tenant, q) = plan.Openloop.stream.(i) in
    let s = clock () in
    let (resp, db') = Txn.translate q !db in
    let e = clock () in
    let ns = Int64.to_int (Int64.sub e s) in
    Metrics.observe h ns;
    List.iter
      (fun (ph, start, stop) -> if i >= start && i < stop then Metrics.observe ph ns)
      phase_hists;
    (match resp with Txn.Failed _ -> incr failed | _ -> ());
    db := db'
  done;
  let t1 = clock () in
  let run_s = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
  (run_s, !failed, db_contents !db)

(* The stream cut into microbatches, each run through [run] — a
   [Pipeline] execution mode — against the state the previous batch left.
   The modes consume a [db_spec] (tuple lists), so state is
   re-materialized between batches — per-batch latency includes that
   handoff, which is why this path is for differential smoke and mode
   comparison, not million-tuple sustained-throughput claims (use
   [Sequential] for those). *)
let run_batched ~clock ~microbatch ~run (plan : Openloop.t) =
  let h = Metrics.histogram latency_hist in
  let stream = Array.of_list (Openloop.tagged plan) in
  let n = Array.length stream in
  let current = ref plan.Openloop.initial in
  let failed = ref 0 in
  let t0 = clock () in
  let i = ref 0 in
  while !i < n do
    let len = min microbatch (n - !i) in
    let batch = Array.to_list (Array.sub stream !i len) in
    let spec =
      { Pipeline.schemas = plan.Openloop.schemas; initial = !current }
    in
    let s = clock () in
    let (responses, final_db) = run spec batch in
    let e = clock () in
    Metrics.observe h (Int64.to_int (Int64.sub e s));
    List.iter
      (fun (_, resp) ->
        match resp with Pipeline.Failed _ -> incr failed | _ -> ())
      responses;
    current := final_db;
    i := !i + len
  done;
  let t1 = clock () in
  let run_s = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
  (run_s, !failed, !current)

let drive ?(mode = Sequential) ?(microbatch = 512)
    ?(backend = Relation.Btree_backend 8) ?(clock = default_clock)
    (plan : Openloop.t) =
  if microbatch < 1 then invalid_arg "Traffic.drive: microbatch < 1";
  let batched run () = run_batched ~clock ~microbatch ~run plan in
  let pooled ?domains run () =
    Fdb_par.Pool.with_pool ?domains (fun pool -> batched (run pool) ())
  in
  let run =
    match mode with
    | Sequential ->
        let db0 = initial_db ~backend plan in
        fun () -> run_sequential ~clock plan db0
    | Parallel { domains } ->
        pooled ?domains (fun pool spec batch ->
            let r = Pipeline.run_parallel ~pool spec batch in
            (r.Pipeline.par_responses, r.Pipeline.par_final_db))
    | Repair { batch = b } ->
        pooled (fun pool spec batch ->
            let r = Pipeline.run_repair ~batch:b ~pool spec batch in
            (r.Pipeline.rep_responses, r.Pipeline.rep_final_db))
    | Sharded { shards } ->
        batched (fun spec batch ->
            let r = Pipeline.run_sharded ~shards spec batch in
            (r.Pipeline.sh_responses, r.Pipeline.sh_final_db))
  in
  let ((run_s, failed, final), snap) = Metrics.scoped run in
  let txns = Openloop.total_txns plan in
  let (p50, p99, p999) = percentiles (stats_of snap latency_hist) in
  let phases =
    match mode with
    | Sequential ->
        List.map
          (fun (name, start, stop) ->
            let (p50, p99, p999) =
              percentiles (stats_of snap (phase_hist name))
            in
            {
              ph_name = name;
              ph_txns = stop - start;
              ph_p50_ns = p50;
              ph_p99_ns = p99;
              ph_p999_ns = p999;
            })
          plan.Openloop.phase_bounds
    | _ -> []
  in
  {
    tr_mode = mode_name mode;
    tr_backend = Relation.backend_name backend;
    tr_txns = txns;
    tr_throughput = (if run_s > 0.0 then float_of_int txns /. run_s else 0.0);
    tr_latency_unit =
      (match mode with Sequential -> "txn" | _ -> "microbatch");
    tr_p50_ns = p50;
    tr_p99_ns = p99;
    tr_p999_ns = p999;
    tr_failed = failed;
    tr_final_tuples =
      List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0 final;
    tr_final_digest = digest_contents final;
    tr_phases = phases;
  }
