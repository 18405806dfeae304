(* Core pipeline tests: per-query semantics of the lenient execution, the
   flagship serializability property (lenient run == sequential reference,
   for random workloads, both semantics, ideal and machine modes), and the
   primary-site cluster. *)

open Fdb
open Fdb_relational
module Ast = Fdb_query.Ast
module W = Fdb_workload.Workload
module M = Fdb_merge.Merge
module Machine = Fdb_rediflow.Machine
module Topology = Fdb_net.Topology
module Engine = Fdb_kernel.Engine

let tup k s = Tuple.make [ Value.Int k; Value.Str s ]

let schemas =
  [ Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ];
    Schema.make ~name:"S" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ] ]

let spec_small =
  {
    Pipeline.schemas;
    initial =
      [ ("R", [ tup 1 "a"; tup 2 "b"; tup 3 "c" ]);
        ("S", [ tup 2 "x"; tup 9 "y" ]) ];
  }

let q = Fdb_query.Parser.parse_exn

let run_queries ?semantics ?mode srcs =
  let tagged = List.mapi (fun i s -> (i mod 2, q s)) srcs in
  (Pipeline.run ?semantics ?mode spec_small tagged).Pipeline.responses

let response_t = Alcotest.testable Pipeline.pp_response Pipeline.response_equal

let responses = Alcotest.(list (pair int response_t))

(* -- per-query semantics (Prepend) ---------------------------------------- *)

let test_prepend_insert_find () =
  Alcotest.check responses "insert then find sees both"
    [ (0, Pipeline.Inserted true); (1, Pipeline.Found [ tup 2 "new"; tup 2 "b" ]) ]
    (run_queries [ "insert (2, \"new\") into R"; "find 2 in R" ])

let test_prepend_delete_all () =
  Alcotest.check responses "delete removes every copy"
    [ (0, Pipeline.Inserted true); (1, Pipeline.Deleted 2);
      (0, Pipeline.Found []) ]
    (run_queries
       [ "insert (2, \"dup\") into R"; "delete 2 from R"; "find 2 in R" ])

let test_prepend_select_count () =
  Alcotest.check responses "select and count"
    [ (0, Pipeline.Selected [ tup 2 "b"; tup 3 "c" ]); (1, Pipeline.Counted 3) ]
    (run_queries [ "select * from R where key >= 2"; "count R" ])

let test_prepend_aggregates () =
  Alcotest.check responses "sum/min/max"
    [ (0, Pipeline.Aggregated (Some (Value.Int 6)));
      (1, Pipeline.Aggregated (Some (Value.Int 1)));
      (0, Pipeline.Aggregated (Some (Value.Str "c")));
      (1, Pipeline.Aggregated None);
      (0, Pipeline.Failed "cannot sum non-numeric column val of R") ]
    (run_queries
       [ "sum key from R"; "min key from R"; "max val from R";
         "min key from R where key > 99"; "sum val from R" ])

let test_prepend_update () =
  Alcotest.check responses "update rewrites and persists"
    [ (0, Pipeline.Updated 2); (1, Pipeline.Found [ tup 2 "z" ]);
      (0, Pipeline.Failed "cannot update the key column key of R") ]
    (run_queries
       [ "update R set val = \"z\" where key >= 2"; "find 2 in R";
         "update R set key = 1" ])

let test_prepend_join () =
  Alcotest.check responses "join"
    [ (0,
       Pipeline.Joined
         [ Tuple.make [ Value.Int 2; Value.Str "b"; Value.Int 2; Value.Str "x" ] ])
    ]
    (run_queries [ "join R and S on key = key" ])

let test_prepend_projection () =
  Alcotest.check responses "projected select"
    [ (0, Pipeline.Selected [ Tuple.make [ Value.Str "a" ] ]) ]
    (run_queries [ "select val from R where key = 1" ])

let test_failures () =
  match run_queries
          [ "find 1 in Nope"; "insert (\"bad\", \"t\") into R";
            "select ghost from R" ]
  with
  | [ (_, Pipeline.Failed _); (_, Pipeline.Failed _); (_, Pipeline.Failed _) ]
    -> ()
  | rs ->
      Alcotest.failf "expected three failures, got %a"
        (Format.pp_print_list (fun ppf (_, r) -> Pipeline.pp_response ppf r))
        rs

(* -- per-query semantics (Ordered_unique) ---------------------------------- *)

let test_ordered_duplicate_rejected () =
  Alcotest.check responses "duplicate key rejected"
    [ (0, Pipeline.Inserted false); (1, Pipeline.Found [ tup 2 "b" ]) ]
    (run_queries ~semantics:Pipeline.Ordered_unique
       [ "insert (2, \"clash\") into R"; "find 2 in R" ])

let test_ordered_insert_delete () =
  Alcotest.check responses "insert fresh then delete"
    [ (0, Pipeline.Inserted true); (1, Pipeline.Deleted 1);
      (0, Pipeline.Deleted 0) ]
    (run_queries ~semantics:Pipeline.Ordered_unique
       [ "insert (5, \"e\") into R"; "delete 5 from R"; "delete 5 from R" ])

(* -- versioning / isolation -------------------------------------------------- *)

let test_pipelined_visibility () =
  (* A find merged AFTER an insert must see it; one merged BEFORE must
     not.  This is exactly the timestamp-order guarantee of §2.4. *)
  Alcotest.check responses "reads see exactly the preceding writes"
    [ (0, Pipeline.Found []); (1, Pipeline.Inserted true);
      (0, Pipeline.Found [ tup 50 "new" ]) ]
    (run_queries
       [ "find 50 in R"; "insert (50, \"new\") into R"; "find 50 in R" ])

let test_read_only_transactions_flood () =
  (* Many finds over one relation must overlap: makespan ~ relation size,
     not #finds * size. *)
  let tagged = List.init 10 (fun i -> (i, q "find 3 in R")) in
  let report = Pipeline.run spec_small tagged in
  Alcotest.(check bool) "flooded" true
    (report.Pipeline.stats.Engine.max_ply >= 5)

let test_dispatch_chain_pipelines () =
  (* 30 inserts into R: the dispatch chain advances one per cycle even
     though each insert's scan is still running (Prepend: O(1) anyway);
     with finds behind them everything still completes. *)
  let tagged =
    List.init 30 (fun i ->
        (0, q (Printf.sprintf "insert (%d, \"k\") into R" (100 + i))))
    @ [ (1, q "count R") ]
  in
  let report = Pipeline.run spec_small tagged in
  (match List.rev report.Pipeline.responses with
  | (_, Pipeline.Counted n) :: _ -> Alcotest.(check int) "final count" 33 n
  | _ -> Alcotest.fail "no count response");
  (* chain of 31 dispatches + the final scan of 33 cells, overlapped *)
  Alcotest.(check bool)
    (Printf.sprintf "fast makespan (%d)" report.Pipeline.stats.Engine.cycles)
    true
    (report.Pipeline.stats.Engine.cycles < 80)

let test_final_db () =
  let tagged =
    List.map (fun s -> (0, q s))
      [ "insert (7, \"x\") into R"; "delete 1 from R";
        "update R set val = \"w\" where key = 2" ]
  in
  let report = Pipeline.run ~semantics:Pipeline.Ordered_unique spec_small tagged in
  let r_contents = List.assoc "R" report.Pipeline.final_db in
  Alcotest.(check (list (pair int string))) "final contents"
    [ (2, "w"); (3, "c"); (7, "x") ]
    (List.map
       (fun t ->
         match (Tuple.get t 0, Tuple.get t 1) with
         | (Value.Int k, Value.Str v) -> (k, v)
         | _ -> Alcotest.fail "bad tuple")
       r_contents);
  Alcotest.(check int) "S untouched" 2
    (List.length (List.assoc "S" report.Pipeline.final_db))

let test_responses_for () =
  let tagged = [ (3, q "count R"); (5, q "count S"); (3, q "count R") ] in
  let report = Pipeline.run spec_small tagged in
  Alcotest.(check int) "client 3 got 2" 2
    (List.length (Pipeline.responses_for ~tag:3 report));
  Alcotest.(check int) "client 5 got 1" 1
    (List.length (Pipeline.responses_for ~tag:5 report))

(* -- the all-engine architecture: produce, merge, dispatch ------------------- *)

let test_run_streams_end_to_end () =
  let streams =
    [ [ q "insert (7, \"x\") into R"; q "find 7 in R" ];
      [ q "count R"; q "count S" ] ]
  in
  let (report, merged) = Pipeline.run_streams spec_small streams in
  Alcotest.(check int) "4 merged" 4 (List.length merged);
  Alcotest.(check int) "4 responses" 4 (List.length report.Pipeline.responses);
  (* per-stream order preserved in the merged order *)
  let of_tag t =
    List.filter_map (fun (g, query) -> if g = t then Some query else None)
      merged
  in
  Alcotest.(check bool) "stream 0 order" true (of_tag 0 = List.nth streams 0);
  Alcotest.(check bool) "stream 1 order" true (of_tag 1 = List.nth streams 1);
  (* the answers equal the sequential meaning of the arbiter's order *)
  let reference = Pipeline.reference spec_small merged in
  Alcotest.(check bool) "serializable" true
    (List.for_all2
       (fun (t1, a) (t2, b) -> t1 = t2 && Pipeline.response_equal a b)
       report.Pipeline.responses reference)

(* -- the flagship property: serializability ---------------------------------- *)

let gen_query_src =
  (* Random well- and ill-formed queries over R, S and an unknown Z. *)
  QCheck2.Gen.(
    let rel = oneofl [ "R"; "S"; "Z" ] in
    let key = int_range 0 15 in
    oneof
      [ map2
          (fun r k ->
            Printf.sprintf "insert (%d, \"v%d\") into %s" k k r)
          rel key;
        map2 (fun r k -> Printf.sprintf "find %d in %s" k r) rel key;
        map2 (fun r k -> Printf.sprintf "delete %d from %s" k r) rel key;
        map2
          (fun r k -> Printf.sprintf "select * from %s where key >= %d" r k)
          rel key;
        map (fun r -> Printf.sprintf "count %s" r) rel;
        map2
          (fun r k -> Printf.sprintf "sum key from %s where key <= %d" r k)
          rel key;
        map (fun r -> Printf.sprintf "min key from %s" r) rel;
        map2
          (fun r k ->
            Printf.sprintf "update %s set val = \"u%d\" where key = %d" r k k)
          rel key;
        map (fun r -> Printf.sprintf "max val from %s" r) rel;
        return "join R and S on key = key" ])

let gen_tagged_stream =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (map2 (fun tag src -> (tag, q src)) (int_range 0 3) gen_query_src))

let prop_run_streams_serializable =
  QCheck2.Test.make ~name:"engine-merged streams stay serializable" ~count:80
    QCheck2.Gen.(
      list_size (int_range 1 4) (list_size (int_range 0 10) gen_query_src))
    (fun streams ->
      let streams = List.map (List.map q) streams in
      let (report, merged) = Pipeline.run_streams spec_small streams in
      let reference = Pipeline.reference spec_small merged in
      List.for_all2
        (fun (t1, a) (t2, b) -> t1 = t2 && Pipeline.response_equal a b)
        report.Pipeline.responses reference)

let serializable_with ?semantics ?mode name =
  QCheck2.Test.make ~name ~count:150 gen_tagged_stream (fun tagged ->
      match Pipeline.check_serializable ?semantics ?mode spec_small tagged with
      | Ok _ -> true
      | Error e -> QCheck2.Test.fail_report e)

let prop_serializable_prepend_ideal =
  serializable_with ~semantics:Pipeline.Prepend
    "serializable: prepend semantics, ideal machine"

let prop_serializable_ordered_ideal =
  serializable_with ~semantics:Pipeline.Ordered_unique
    "serializable: ordered semantics, ideal machine"

let prop_serializable_on_machine =
  serializable_with ~semantics:Pipeline.Prepend
    ~mode:(Pipeline.On_machine (Machine.default_config (Topology.hypercube 2)))
    "serializable: prepend semantics, 4-PE hypercube"

let prop_serializable_ordered_machine =
  serializable_with ~semantics:Pipeline.Ordered_unique
    ~mode:(Pipeline.On_machine (Machine.default_config (Topology.mesh3d 2 2 1)))
    "serializable: ordered semantics, 2x2 mesh"

(* Machine mode must compute the same responses as ideal mode. *)
let prop_serializable_random_topologies =
  QCheck2.Test.make ~name:"serializable on random machines" ~count:60
    QCheck2.Gen.(pair (int_range 0 999) gen_tagged_stream)
    (fun (seed, tagged) ->
      let topo =
        Topology.random ~seed ~n:(2 + (seed mod 9)) ~extra_edges:(seed mod 5)
      in
      match
        Pipeline.check_serializable
          ~mode:(Pipeline.On_machine (Machine.default_config topo))
          spec_small tagged
      with
      | Ok _ -> true
      | Error e -> QCheck2.Test.fail_report e)

let prop_machine_matches_ideal =
  QCheck2.Test.make ~name:"machine responses == ideal responses" ~count:100
    gen_tagged_stream (fun tagged ->
      let ideal = (Pipeline.run spec_small tagged).Pipeline.responses in
      let machine =
        (Pipeline.run
           ~mode:(Pipeline.On_machine (Machine.default_config (Topology.ring 5)))
           spec_small tagged)
          .Pipeline.responses
      in
      List.for_all2
        (fun (t1, r1) (t2, r2) -> t1 = t2 && Pipeline.response_equal r1 r2)
        ideal machine)

(* The paper-grid runs have no unresolved work and deterministic stats. *)
let test_experiment_determinism () =
  let w = W.generate W.default_spec in
  let tagged = Experiment.merged_workload w in
  let spec = Pipeline.db_spec_of_workload w in
  let s1 = (Pipeline.run spec tagged).Pipeline.stats in
  let s2 = (Pipeline.run spec tagged).Pipeline.stats in
  Alcotest.(check int) "same tasks" s1.Engine.tasks s2.Engine.tasks;
  Alcotest.(check int) "same cycles" s1.Engine.cycles s2.Engine.cycles;
  Alcotest.(check int) "no orphans" 0 s1.Engine.orphans

(* -- cluster (Figure 3-1) ------------------------------------------------------ *)

let test_cluster_routes_responses () =
  let cluster = Cluster.create ~topology:(Topology.bus 4) spec_small in
  let outcome =
    Cluster.submit cluster
      [ (1, [ q "insert (7, \"c1\") into R"; q "find 7 in R" ]);
        (2, [ q "count S" ]);
        (3, [ q "find 2 in S" ]) ]
  in
  Alcotest.(check int) "4 merged" 4 (List.length outcome.Cluster.merged);
  Alcotest.(check int) "4 requests" 4 outcome.Cluster.request_messages;
  Alcotest.(check int) "4 responses" 4 outcome.Cluster.response_messages;
  let site1 = List.assoc 1 outcome.Cluster.per_site in
  Alcotest.(check int) "site 1 got both answers" 2 (List.length site1);
  (match site1 with
  | [ Pipeline.Inserted true; Pipeline.Found [ t ] ] ->
      Alcotest.(check bool) "found its own insert" true
        (Tuple.equal t (tup 7 "c1"))
  | _ -> Alcotest.fail "site 1 responses wrong");
  (match List.assoc 2 outcome.Cluster.per_site with
  | [ Pipeline.Counted 2 ] -> ()
  | _ -> Alcotest.fail "site 2 response wrong");
  Alcotest.(check bool) "serializable" true
    (Cluster.serializable outcome cluster)

let test_cluster_bus_is_a_fair_merge () =
  (* With all sites injecting one query per cycle, the bus interleaves
     them round-robin-ish: per-site order must be preserved. *)
  let cluster = Cluster.create ~topology:(Topology.bus 3) spec_small in
  let outcome =
    Cluster.submit cluster
      [ (1, List.init 5 (fun i -> q (Printf.sprintf "find %d in R" i)));
        (2, List.init 5 (fun i -> q (Printf.sprintf "find %d in S" i))) ]
  in
  let site_queries site =
    List.filter_map
      (fun (tag, query) -> if tag = site then Some query else None)
      outcome.Cluster.merged
  in
  Alcotest.(check int) "site 1 order kept" 5 (List.length (site_queries 1));
  Alcotest.(check bool) "site 1 subsequence" true
    (site_queries 1 = List.init 5 (fun i -> q (Printf.sprintf "find %d in R" i)))

let test_cluster_rejects_bad_sites () =
  let cluster = Cluster.create ~topology:(Topology.bus 3) spec_small in
  Alcotest.check_raises "primary as client"
    (Invalid_argument "Cluster.submit: clients must not sit on the primary")
    (fun () -> ignore (Cluster.submit cluster [ (0, [ q "count R" ]) ]));
  Alcotest.check_raises "site outside topology"
    (Invalid_argument "Cluster.submit: site outside the topology") (fun () ->
      ignore (Cluster.submit cluster [ (9, [ q "count R" ]) ]))

let test_cluster_failover_by_replay () =
  let cluster = Cluster.create ~topology:(Topology.bus 4) spec_small in
  let sessions =
    [ (1, [ q "insert (7, \"x\") into R"; q "find 7 in R"; q "count R" ]);
      (2, [ q "insert (8, \"y\") into R"; q "find 8 in R" ]);
      (3, [ q "count S" ]) ]
  in
  let fo = Cluster.submit_with_failover cluster ~fail_after:3 sessions in
  Alcotest.(check int) "6 merged" 6 (List.length fo.Cluster.f_merged);
  Alcotest.(check int) "3 served before crash" 3
    (List.length fo.Cluster.f_served_before_crash);
  Alcotest.(check bool) "replay reproduces the served prefix" true
    fo.Cluster.f_prefix_agrees;
  (* every client eventually holds every answer *)
  Alcotest.(check int) "all answers delivered" 6
    (List.fold_left
       (fun acc (_, rs) -> acc + List.length rs)
       0 fo.Cluster.f_per_site)

let prop_failover_always_consistent =
  QCheck2.Test.make ~name:"failover replay agrees at every crash point"
    ~count:60
    QCheck2.Gen.(pair (int_range 0 20) gen_tagged_stream)
    (fun (crash_at, tagged) ->
      let cluster = Cluster.create ~topology:(Topology.bus 5) spec_small in
      (* deal the stream into 4 client sessions on sites 1..4 *)
      let sessions =
        List.init 4 (fun site ->
            ( site + 1,
              List.filteri (fun i _ -> i mod 4 = site) (List.map snd tagged) ))
      in
      let fo = Cluster.submit_with_failover cluster ~fail_after:crash_at sessions in
      fo.Cluster.f_prefix_agrees)

(* -- experiments smoke --------------------------------------------------------- *)

let test_table1_shape () =
  let cells = Experiment.table1 ~transactions:20 ~initial_tuples:20 () in
  Alcotest.(check int) "full grid" 18 (List.length cells);
  List.iter
    (fun c ->
      Alcotest.(check bool) "max >= avg" true
        (float_of_int c.Experiment.c_max_ply >= c.Experiment.c_avg_ply);
      Alcotest.(check bool) "positive" true (c.Experiment.c_avg_ply > 0.0))
    cells;
  (* concurrency falls as updates rise, per relation count *)
  List.iter
    (fun k ->
      let at pct =
        (List.find
           (fun c -> c.Experiment.c_pct = pct && c.Experiment.c_relations = k)
           cells)
          .Experiment.c_avg_ply
      in
      Alcotest.(check bool)
        (Printf.sprintf "declining trend for %d relations" k)
        true
        (at 0.0 >= at 38.0))
    [ 5; 3; 1 ]

let test_fig22_rows () =
  let rows = Experiment.fig22 ~sizes:[ 100; 1000 ] () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "rebuilt is logarithmic" true
        (r.Experiment.h_rebuilt <= 6);
      Alcotest.(check int) "shared + rebuilt = total" r.Experiment.h_pages
        (r.Experiment.h_shared + r.Experiment.h_rebuilt))
    rows;
  match rows with
  | [ small; large ] ->
      Alcotest.(check bool) "fraction shrinks" true
        (large.Experiment.h_fraction < small.Experiment.h_fraction)
  | _ -> Alcotest.fail "expected two rows"

(* -- traffic driver ---------------------------------------------------------- *)

let traffic_plan =
  Fdb_workload.Openloop.generate
    (Fdb_workload.Openloop.standard ~relations:2 ~initial_tuples:600
       ~tenants:2 ~txns:400 ~seed:9 ())

let test_traffic_differential () =
  (* the same stream through every mode and two layouts must land the same
     final state; Sequential carries the per-phase percentiles *)
  let module T = Fdb.Traffic in
  let seq = T.drive ~backend:(Relation.Btree_backend 8) traffic_plan in
  Alcotest.(check int) "txns" 400 seq.T.tr_txns;
  Alcotest.(check string) "unit" "txn" seq.T.tr_latency_unit;
  Alcotest.(check int) "three phases" 3 (List.length seq.T.tr_phases);
  List.iter
    (fun ph ->
      Alcotest.(check bool) (ph.T.ph_name ^ " has latencies") true
        (ph.T.ph_txns > 0 && ph.T.ph_p50_ns >= 0.0
        && ph.T.ph_p50_ns <= ph.T.ph_p999_ns))
    seq.T.tr_phases;
  let digests =
    Fdb_par.Pool.with_pool ~domains:2 (fun pool ->
        List.map
          (fun (label, mode, backend) ->
            let r = T.drive ~mode ~microbatch:64 ~backend traffic_plan in
            (label, r.T.tr_final_digest, r.T.tr_final_tuples))
          [
            ("seq-column", T.Sequential, Relation.Column_backend 64);
            ( "sharded",
              T.Batched (Sharded { shards = 2 }),
              Relation.Btree_backend 8 );
            ( "repair",
              T.Batched (Repair { pool; batch = 16; index = None }),
              Relation.Btree_backend 8 );
          ])
  in
  List.iter
    (fun (label, digest, tuples) ->
      Alcotest.(check string) (label ^ " digest") seq.T.tr_final_digest digest;
      Alcotest.(check int) (label ^ " tuples") seq.T.tr_final_tuples tuples)
    digests

(* The batched modes hand each batch's [Database.t] to the next on the
   caller's backend: on the list and column layouts too, every mode lands
   the sequential btree-8 digest and reports the backend it ran on. *)
let test_traffic_batched_backends () =
  let module T = Fdb.Traffic in
  let seq = T.drive ~backend:(Relation.Btree_backend 8) traffic_plan in
  Fdb_par.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun backend ->
          List.iter
            (fun executor ->
              let r =
                T.drive ~mode:(T.Batched executor) ~microbatch:64 ~backend
                  traffic_plan
              in
              let label = r.T.tr_mode ^ " on " ^ r.T.tr_backend in
              Alcotest.(check string) (label ^ ": backend")
                (Relation.backend_name backend) r.T.tr_backend;
              Alcotest.(check string) (label ^ ": digest")
                seq.T.tr_final_digest r.T.tr_final_digest)
            [ Pipeline.Parallel { pool; index = None };
              Repair { pool; batch = 16; index = None };
              Sharded { shards = 2 } ])
        [ Relation.List_backend; Relation.Column_backend 256 ])

let () =
  Alcotest.run "core"
    [
      ( "prepend semantics",
        [
          Alcotest.test_case "insert/find" `Quick test_prepend_insert_find;
          Alcotest.test_case "delete all" `Quick test_prepend_delete_all;
          Alcotest.test_case "select/count" `Quick test_prepend_select_count;
          Alcotest.test_case "join" `Quick test_prepend_join;
          Alcotest.test_case "aggregates" `Quick test_prepend_aggregates;
          Alcotest.test_case "update" `Quick test_prepend_update;
          Alcotest.test_case "projection" `Quick test_prepend_projection;
          Alcotest.test_case "failures" `Quick test_failures;
        ] );
      ( "ordered semantics",
        [
          Alcotest.test_case "duplicate rejected" `Quick
            test_ordered_duplicate_rejected;
          Alcotest.test_case "insert/delete" `Quick test_ordered_insert_delete;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "visibility" `Quick test_pipelined_visibility;
          Alcotest.test_case "reads flood" `Quick
            test_read_only_transactions_flood;
          Alcotest.test_case "dispatch chain" `Quick
            test_dispatch_chain_pipelines;
          Alcotest.test_case "responses_for" `Quick test_responses_for;
          Alcotest.test_case "final_db" `Quick test_final_db;
          Alcotest.test_case "run_streams end to end" `Quick
            test_run_streams_end_to_end;
        ] );
      ( "serializability",
        [
          QCheck_alcotest.to_alcotest prop_serializable_prepend_ideal;
          QCheck_alcotest.to_alcotest prop_serializable_ordered_ideal;
          QCheck_alcotest.to_alcotest prop_serializable_on_machine;
          QCheck_alcotest.to_alcotest prop_serializable_ordered_machine;
          QCheck_alcotest.to_alcotest prop_serializable_random_topologies;
          QCheck_alcotest.to_alcotest prop_run_streams_serializable;
          QCheck_alcotest.to_alcotest prop_machine_matches_ideal;
          Alcotest.test_case "determinism" `Quick test_experiment_determinism;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "modes and backends agree" `Quick
            test_traffic_differential;
          Alcotest.test_case "batched modes on list and column" `Quick
            test_traffic_batched_backends;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "routes responses" `Quick
            test_cluster_routes_responses;
          Alcotest.test_case "bus is a merge" `Quick
            test_cluster_bus_is_a_fair_merge;
          Alcotest.test_case "bad sites" `Quick test_cluster_rejects_bad_sites;
          Alcotest.test_case "failover by replay" `Quick
            test_cluster_failover_by_replay;
          QCheck_alcotest.to_alcotest prop_failover_always_consistent;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 shape" `Quick test_table1_shape;
          Alcotest.test_case "fig22 rows" `Quick test_fig22_rows;
        ] );
    ]
