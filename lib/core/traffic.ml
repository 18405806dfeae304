open Fdb_relational
module Openloop = Fdb_workload.Openloop
module Metrics = Fdb_obs.Metrics
module Txn = Fdb_txn.Txn

type mode = Sequential | Batched of Pipeline.executor

let mode_name = function
  | Sequential -> "sequential"
  | Batched (Pipeline.Parallel _) -> "parallel"
  | Batched (Pipeline.Repair _) -> "repair"
  | Batched (Pipeline.Sharded _) -> "sharded"

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
  (run_s, !failed, !db)

(* The stream cut into microbatches, each run through [executor] on the
   version the previous batch left: state is handed over as a [Database.t]
   on the caller's backend, so a batch's latency is its transactions, not
   a rebuild of the relations. *)
let run_batched ~clock ~microbatch executor (plan : Openloop.t) db0 =
  let h = Metrics.histogram latency_hist in
  let stream = Array.of_list (Openloop.tagged plan) in
  let n = Array.length stream in
  let db = ref db0 in
  let failed = ref 0 in
  let t0 = clock () in
  let i = ref 0 in
  while !i < n do
    let len = min microbatch (n - !i) in
    let batch = Array.to_list (Array.sub stream !i len) in
    let s = clock () in
    let o = Pipeline.execute executor !db batch in
    let e = clock () in
    Metrics.observe h (Int64.to_int (Int64.sub e s));
    List.iter
      (fun (_, resp) -> match resp with Txn.Failed _ -> incr failed | _ -> ())
      o.Pipeline.responses;
    db := o.Pipeline.final;
    i := !i + len
  done;
  let t1 = clock () in
  let run_s = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
  (run_s, !failed, !db)

let drive ?(mode = Sequential) ?(microbatch = 512)
    ?(backend = Relation.Btree_backend 8) ?(clock = default_clock)
    (plan : Openloop.t) =
  if microbatch < 1 then invalid_arg "Traffic.drive: microbatch < 1";
  let db0 = initial_db ~backend plan in
  let run () =
    match mode with
    | Sequential -> run_sequential ~clock plan db0
    | Batched executor -> run_batched ~clock ~microbatch executor plan db0
  in
  let ((run_s, failed, final), snap) = Metrics.scoped run in
  let final = Database.contents final in
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
