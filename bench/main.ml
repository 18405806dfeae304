(* The benchmark harness: regenerates every table and figure of the paper
   (with the published values alongside for comparison), the ablations from
   DESIGN.md, and a set of bechamel micro-benchmarks.

   Usage:  main.exe [table1|table2|table3|fig21|fig22|fig23|fig31|
                     ablation-repr|ablation-topo|ablation-merge|
                     ablation-semantics|ablation-engine-repr|
                     ablation-eval-mode|scaling|recover|
                     plan [--quick] [--seed N] [-o FILE]|
                     index [--quick] [--seed N] [-o FILE]|
                     trace-overhead|micro|all]
                    (default: all)

   `plan` sweeps the access-path planner (point / range / full scans and
   hash vs nested joins) over every backend, and `index` the secondary,
   covering and derived indexes; each writes a BENCH_*.json artifact
   stamped with the seed and git revision.  `trace-overhead` asserts that
   the observability layer's guarded emission adds zero allocations per
   operation while the trace sink is disabled.  Executor and durability
   performance is measured by the repository benchmark in perfbench/. *)

open Fdb
module W = Fdb_workload.Workload
module Topology = Fdb_net.Topology

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* The current git revision, read straight off the repository metadata so
   the artifact needs no subprocess and no extra dependency. *)
let git_rev () =
  let read_line path =
    try
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ -> None
  in
  let rec resolve dir depth =
    if depth > 6 then None
    else
      match read_line (Filename.concat dir ".git/HEAD") with
      | Some s when String.length s > 5 && String.sub s 0 5 = "ref: " ->
          let ref_path = String.sub s 5 (String.length s - 5) in
          read_line (Filename.concat dir (Filename.concat ".git" ref_path))
      | Some s -> Some s
      | None -> resolve (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  Option.value ~default:"unknown" (resolve Filename.current_dir_name 0)

(* Published values, transcribed from the paper (a dash marks a cell that is
   illegible in the scanned copy).  Row order: 0, 4, 7, 14, 24, 38 percent;
   column order: 5, 3, 1 relations. *)
let paper_table1 =
  [ (0.0, [ Some (25, 14); Some (27, 15); Some (39, 17) ]);
    (4.0, [ Some (25, 14); Some (28, 15); Some (45, 17) ]);
    (7.0, [ Some (26, 14); None; Some (46, 15) ]);
    (14.0, [ Some (26, 14); Some (29, 13); Some (42, 13) ]);
    (24.0, [ Some (24, 12); Some (28, 11); Some (36, 9) ]);
    (38.0, [ Some (24, 10); Some (24, 9); Some (22, 9) ]) ]

let paper_table2 =
  [ (0.0, [ Some 5.6; Some 5.7; Some 6.2 ]);
    (4.0, [ Some 5.6; Some 5.7; Some 6.1 ]);
    (7.0, [ Some 5.6; None; Some 5.9 ]);
    (14.0, [ Some 5.4; Some 5.5; Some 5.6 ]);
    (24.0, [ Some 5.2; Some 5.0; Some 4.7 ]);
    (38.0, [ Some 4.8; Some 4.6; Some 4.7 ]) ]

let paper_table3 =
  [ (0.0, [ Some 7.2; Some 7.6; Some 8.9 ]);
    (4.0, [ Some 7.2; Some 7.6; Some 8.9 ]);
    (7.0, [ Some 7.1; None; Some 8.9 ]);
    (14.0, [ Some 7.2; Some 7.6; Some 7.8 ]);
    (24.0, [ Some 6.8; Some 6.4; Some 6.1 ]);
    (38.0, [ Some 6.0; Some 6.2; Some 6.0 ]) ]

let table1 () =
  section "Table I: maximum and average degree of concurrency (ideal mode)";
  Printf.printf
    "50 transactions, 50 initial tuples, linked-list relations\n\
     columns: 5 / 3 / 1 relations; each cell: max avg (paper: max avg)\n\n";
  let cells = Experiment.table1 () in
  Printf.printf "%7s  %26s  %26s  %26s\n" "updates" "5 relations"
    "3 relations" "1 relation";
  List.iter
    (fun (pct, paper_row) ->
      Printf.printf "%6.0f%%  " pct;
      List.iteri
        (fun i k ->
          let c =
            List.find
              (fun c ->
                c.Experiment.c_pct = pct && c.Experiment.c_relations = k)
              cells
          in
          let paper =
            match List.nth paper_row i with
            | Some (m, a) -> Printf.sprintf "(paper %2d %2d)" m a
            | None -> "(paper  -  -)"
          in
          Printf.printf "  %3d %5.1f %s" c.Experiment.c_max_ply
            c.Experiment.c_avg_ply paper)
        W.paper_relation_counts;
      print_newline ())
    paper_table1

let speedup_run name topo paper =
  section name;
  Printf.printf "columns: 5 / 3 / 1 relations; each cell: speedup (paper)\n\n";
  let cells = Experiment.speedup_table topo in
  Printf.printf "%7s  %18s  %18s  %18s\n" "updates" "5 relations"
    "3 relations" "1 relation";
  List.iter
    (fun (pct, paper_row) ->
      Printf.printf "%6.0f%%  " pct;
      List.iteri
        (fun i k ->
          let c =
            List.find
              (fun c ->
                c.Experiment.s_pct = pct && c.Experiment.s_relations = k)
              cells
          in
          let paper =
            match List.nth paper_row i with
            | Some v -> Printf.sprintf "(paper %3.1f)" v
            | None -> "(paper  - )"
          in
          Printf.printf "  %6.2f %s" c.Experiment.s_speedup paper)
        W.paper_relation_counts;
      print_newline ())
    paper;
  (* extra machine detail the paper does not tabulate *)
  let mid =
    List.find
      (fun c -> c.Experiment.s_pct = 14.0 && c.Experiment.s_relations = 3)
      cells
  in
  Printf.printf
    "\n(at 14%%/3 relations: utilization %.2f, %d messages, %d migrations,\n\
    \ makespan %d cycles)\n"
    mid.Experiment.s_utilization mid.Experiment.s_messages
    mid.Experiment.s_migrations mid.Experiment.s_cycles

let table2 () =
  speedup_run "Table II: speedup, 8-node binary hypercube"
    (Topology.hypercube 3) paper_table2

let table3 () =
  speedup_run "Table III: speedup, 27-node Euclidean cube (3x3x3)"
    (Topology.mesh3d 3 3 3) paper_table3

let fig21 () =
  section "Figure 2-1: transaction application in graphical form";
  Experiment.fig21 Format.std_formatter ()

let fig22 () =
  section "Figure 2-2 / s3.3: page sharing through separate directories";
  Printf.printf
    "one insert into a B-tree relation (branching 8): pages rebuilt vs\n\
     shared with the old version; the rebuilt fraction ~ (log n)/n\n\n";
  Format.printf "@[<v>%a@]@." Experiment.pp_fig22 (Experiment.fig22 ())

let fig23 () =
  section "Figure 2-3: merging and decomposition of transaction streams";
  Experiment.fig23 Format.std_formatter ()

let fig31 () =
  section "Figure 3-1: the network medium as merge; choose per site";
  let tup k s =
    Fdb_relational.Tuple.make
      [ Fdb_relational.Value.Int k; Fdb_relational.Value.Str s ]
  in
  let spec =
    {
      Pipeline.schemas =
        [ Fdb_relational.Schema.make ~name:"R"
            ~cols:[ ("key", Fdb_relational.Schema.CInt);
                    ("val", Fdb_relational.Schema.CStr) ] ];
      initial = [ ("R", [ tup 1 "a"; tup 2 "b" ]) ];
    }
  in
  let cluster = Cluster.create ~topology:(Topology.bus 4) spec in
  let q = Fdb_query.Parser.parse_exn in
  let outcome =
    Cluster.submit cluster
      [ (1, [ q "insert (10, \"from-site-1\") into R"; q "find 10 in R" ]);
        (2, [ q "count R"; q "find 2 in R" ]);
        (3, [ q "select * from R where key <= 2" ]) ]
  in
  Printf.printf
    "3 client sites + primary on a shared bus; the medium serializes\n\
     (= the merge); responses are tagged and chosen per site.\n\n";
  Printf.printf "merged stream as it arrived at the primary:\n";
  List.iter
    (fun (site, query) ->
      Printf.printf "  [site %d] %s\n" site (Fdb_query.Ast.to_string query))
    outcome.Cluster.merged;
  Printf.printf "\nresponses delivered back (choose at each site):\n";
  List.iter
    (fun (site, rs) ->
      List.iter
        (fun r ->
          Format.printf "  [site %d] %a@." site Pipeline.pp_response r)
        rs)
    outcome.Cluster.per_site;
  Printf.printf
    "\n%d request messages, %d response messages, %d bus cycles;\n\
     serializable: %b\n"
    outcome.Cluster.request_messages outcome.Cluster.response_messages
    outcome.Cluster.transport_cycles
    (Cluster.serializable outcome cluster);
  (* failure transparency by deterministic replay *)
  let fo =
    Cluster.submit_with_failover cluster ~fail_after:2
      [ (1, [ q "insert (10, \"from-site-1\") into R"; q "find 10 in R" ]);
        (2, [ q "count R"; q "find 2 in R" ]);
        (3, [ q "select * from R where key <= 2" ]) ]
  in
  Printf.printf
    "\nfailover drill: primary crashes after %d of %d transactions;\n\
     the standby replays the merged stream from the initial database.\n\
     replayed prefix identical to the served one: %b\n\
     (the version stream is a pure function of the merged stream)\n"
    (List.length fo.Cluster.f_served_before_crash)
    (List.length fo.Cluster.f_merged)
    fo.Cluster.f_prefix_agrees

let ablation_repr () =
  section "Ablation A1: relation representation (list vs trees)";
  Printf.printf
    "reconstruction units (cells/nodes/pages) built per ordered-unique\n\
     insert, and physical sharing after 20 inserts (s2.3: trees are\n\
     projected to beat lists)\n\n";
  Format.printf "@[<v>%a@]@." Experiment.pp_ablation_repr
    (Experiment.ablation_repr ())

let ablation_topo () =
  section "Ablation A2: topology and load management";
  Printf.printf
    "default workload (14%% updates, 3 relations) on every topology, with\n\
     pressure-gradient balancing on/off\n\n";
  Format.printf "@[<v>%a@]@." Experiment.pp_ablation_topo
    (Experiment.ablation_topo ())

let ablation_merge () =
  section "Ablation A3: merge policy (s2.4 'judicious ordering')";
  Format.printf "@[<v>%a@]@." Experiment.pp_ablation_merge
    (Experiment.ablation_merge ())

let ablation_engine_repr () =
  section "Ablation A5: engine-level representation (lenient list vs 2-3 tree)";
  Printf.printf
    "the same single-relation insert/find stream executed as a lenient task\n\
     graph over both representations (s2.3's projection, measured in plies)\n\n";
  Format.printf "@[<v>%a@]@." Experiment.pp_ablation_engine_repr
    (Experiment.ablation_engine_repr ())

let ablation_eval_mode () =
  section "Ablation A6: lenient (data-driven) vs demand-driven evaluation";
  Printf.printf
    "the same FEL program under both strategies: leniency buys anticipatory\n\
     parallelism; demand-driven evaluation admits infinite streams\n\n";
  let programs =
    [ ("3 scans of a 60-list",
       "db = iota:60, RESULT [sum:db, length:db, sum:(reverse:db)]");
      ("apply-stream (4 txns)",
       "apply-stream:[ts, dbs] = if null?:ts then [[], []] else { \
          [response, new-db] = (first:ts):(first:dbs), \
          [more, more-dbs] = apply-stream:[rest:ts, rest:dbs], \
          RESULT [response ^ more, new-db ^ more-dbs] }, \
        mk-insert:k = { txn:db = [k, k ^ db], RESULT txn }, \
        mk-count:i = { txn:db = [length:db, db], RESULT txn }, \
        transactions = [mk-insert:10, mk-count:0, mk-insert:20, mk-count:0], \
        [responses, new-dbs] = apply-stream:[transactions, old-dbs], \
        old-dbs = iota:20 ^ new-dbs, \
        RESULT responses");
      ("take 10 of an infinite stream",
       "inc:x = x + 1, nats = 0 ^ (inc || nats), RESULT take:[10, nats]") ]
  in
  Printf.printf "%-32s %10s %8s %8s %8s\n" "program" "mode" "tasks"
    "cycles" "max ply";
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (mname, mode) ->
          match Fdb_fel.Eval.run_string ~max_cycles:200_000 ~mode src with
          | Ok (_, s) ->
              Printf.printf "%-32s %10s %8d %8d %8d\n" name mname
                s.Fdb_kernel.Engine.tasks s.Fdb_kernel.Engine.cycles
                s.Fdb_kernel.Engine.max_ply
          | Error e ->
              Printf.printf "%-32s %10s %s\n" name mname
                (if String.length e >= 7 && String.sub e 0 7 = "stalled"
                 then "diverges (as lenient semantics dictates)"
                 else e))
        [ ("lenient", Fdb_fel.Eval.Lenient); ("demand", Fdb_fel.Eval.Demand) ])
    programs

let scaling () =
  section "Scaling: concurrency vs stream length and relation size";
  Printf.printf
    "beyond the paper's 50x50 point: 3 relations, 14%% inserts\n\n";
  Format.printf "@[<v>%a@]@." Experiment.pp_scaling (Experiment.scaling ())

let ablation_semantics () =
  section "Ablation A4: insert semantics (multiset prepend vs ordered set)";
  Format.printf "@[<v>%a@]@." Experiment.pp_ablation_semantics
    (Experiment.ablation_semantics ())

(* -- recovery: failover time vs checkpoint interval ------------------------- *)

let recover () =
  let module Gen = Fdb_check.Gen in
  let module Replica = Fdb_replica.Replica in
  let module Snapshot = Fdb_replica.Snapshot in
  let module History = Fdb_txn.History in
  section "Recovery: failover time vs checkpoint interval";
  Printf.printf
    "primary killed after its 12th commit (3 clients x 10 queries, drop \
     1/5);\nmeans over 8 seeds; interval 0 = no checkpoints, replay the \
     whole log;\ntuples = initial tuples per relation, keys drawn from \
     max (tuples, 12)\n\n";
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Printf.printf "%7s %9s %10s %10s %10s %12s\n" "tuples" "interval" "recovery"
    "replayed" "suffix" "ckpt-bytes";
  List.iter
    (fun (tuples, interval) ->
      let (n, rec_t, rep, suf, bytes) =
        List.fold_left
          (fun (n, rec_t, rep, suf, bytes) seed ->
            let sc =
              Gen.generate
                { Gen.default_spec with
                  Gen.seed;
                  queries_per_client = 10;
                  initial_tuples = tuples;
                  key_range = max tuples Gen.default_spec.key_range }
            in
            let config =
              { Replica.default_config with
                Replica.checkpoint_every = interval;
                seed;
                crash = Replica.Mid_stream 12 }
            in
            let r =
              Replica.run ~config ~initial:(Gen.initial_db sc) sc.Gen.streams
            in
            assert (r.Replica.acked_lost = [] && r.Replica.dup_applied = 0);
            ( n + 1,
              rec_t + Option.value ~default:0 r.Replica.recovery_ticks,
              rep + r.Replica.replayed,
              suf + r.Replica.log_suffix_at_crash,
              bytes + r.Replica.checkpoint_bytes ))
          (0, 0, 0, 0, 0) seeds
      in
      let mean x = float_of_int x /. float_of_int n in
      Printf.printf "%7d %9d %10.1f %10.1f %10.1f %12.1f\n" tuples interval
        (mean rec_t) (mean rep) (mean suf) (mean bytes))
    (List.map
       (fun i -> (Gen.default_spec.initial_tuples, i))
       [ 1; 2; 5; 10; 20; 0 ]
    @ [ (1000, 1); (1000, 5) ]);
  Printf.printf
    "\ncheckpoint wire cost: delta encoding vs every version in full\n";
  Printf.printf "%9s %12s %12s %8s\n" "versions" "delta" "naive" "ratio";
  List.iter
    (fun qpc ->
      let sc =
        Gen.generate { Gen.default_spec with Gen.seed = 1; queries_per_client = qpc }
      in
      let h =
        List.fold_left
          (fun h q -> fst (History.commit_query h q))
          (History.create (Gen.initial_db sc))
          (List.concat sc.Gen.streams)
      in
      let delta = String.length (Snapshot.encode h) in
      (* the control: each version shipped in full, on its own *)
      let naive = ref 0 in
      for i = 0 to History.length h - 1 do
        naive :=
          !naive
          + String.length (Snapshot.encode (History.create (History.version h i)))
      done;
      let naive = !naive in
      Printf.printf "%9d %12d %12d %7.1fx\n" (History.length h) delta naive
        (float_of_int naive /. float_of_int delta))
    [ 4; 8; 16; 32 ]

(* -- plan: access-path planner speedups -------------------------------------- *)

let plan_bench ~quick ~seed ~out =
  let module R = Fdb_relational.Relation in
  let module Schema = Fdb_relational.Schema in
  let module Tuple = Fdb_relational.Tuple in
  let module Value = Fdb_relational.Value in
  let module Database = Fdb_relational.Database in
  let module Algebra = Fdb_relational.Algebra in
  let module Meter = Fdb_persistent.Meter in
  let module Txn = Fdb_txn.Txn in
  let module Pred = Fdb_query.Pred in
  section
    (Printf.sprintf "Access-path planner: indexed reads vs full scans (%s)"
       (if quick then "quick" else "full"));
  (* Calibrated CPU-time loop: repeat until the sample is long enough for
     Sys.time's resolution, report ns per run. *)
  let budget = if quick then 0.01 else 0.05 in
  let time_ns f =
    ignore (f ());
    let rec go iters =
      let t0 = Sys.time () in
      for _ = 1 to iters do
        ignore (f ())
      done;
      let dt = Sys.time () -. t0 in
      if dt < budget && iters < 1_000_000 then go (iters * 4)
      else dt *. 1e9 /. float_of_int iters
    in
    go 1
  in
  let schema =
    Schema.make ~name:"R"
      ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]
  in
  let tup k =
    Tuple.make [ Value.Int k; Value.Str (Printf.sprintf "v%d" (k mod 97)) ]
  in
  let backends =
    [ R.List_backend; R.Avl_backend; R.Two3_backend; R.Btree_backend 8 ]
  in
  let sizes = if quick then [ 1_000 ] else [ 1_000; 10_000 ] in
  let results = ref [] in
  let record ~scenario ~backend ~size ~planned ~naive ~visited ~full =
    results :=
      (scenario, backend, size, planned, naive, visited, full) :: !results;
    Printf.printf "%-12s %-8s %7d %12.0f %12.0f %8.1fx %9d /%8d\n" scenario
      backend size planned naive (naive /. planned) visited full
  in
  Printf.printf "%-12s %-8s %7s %12s %12s %9s %9s %9s\n" "scenario"
    "backend" "size" "planned-ns" "scan-ns" "speedup" "visited" "full";
  List.iter
    (fun size ->
      List.iter
        (fun backend ->
          let name = R.backend_name backend in
          let db =
            match
              Database.load
                (Database.create ~backend [ schema ])
                ~rel:"R"
                (List.init size tup)
            with
            | Ok db -> db
            | Error e -> failwith e
          in
          let r = Option.get (Database.relation db "R") in
          let full_units =
            let m = Meter.create () in
            ignore (R.fold ~meter:m (fun a _ -> a) () r);
            Meter.allocs m
          in
          let run_case scenario src ~lo ~hi =
            let q = Fdb_query.Parser.parse_exn src in
            let txn = Txn.translate q in
            let planned = time_ns (fun () -> fst (txn db)) in
            let test =
              match q with
              | Fdb_query.Ast.Select { where; _ } -> (
                  match Pred.compile schema where with
                  | Ok t -> t
                  | Error e -> failwith e)
              | _ -> assert false
            in
            let naive = time_ns (fun () -> List.filter test (R.to_list r)) in
            let visited =
              let m = Meter.create () in
              ignore (R.range_fold ~meter:m ~lo ~hi (fun a _ -> a) () r);
              Meter.allocs m
            in
            record ~scenario ~backend:name ~size ~planned ~naive ~visited
              ~full:full_units
          in
          let mid = size / 2 in
          run_case "point"
            (Printf.sprintf "select * from R where key = %d" mid)
            ~lo:(R.Inclusive (Value.Int mid))
            ~hi:(R.Inclusive (Value.Int mid));
          List.iter
            (fun sel ->
              let width = max 1 (size * sel / 100) in
              run_case
                (Printf.sprintf "range-%d%%" sel)
                (Printf.sprintf
                   "select * from R where key >= %d and key < %d" mid
                   (mid + width))
                ~lo:(R.Inclusive (Value.Int mid))
                ~hi:(R.Exclusive (Value.Int (mid + width))))
            [ 1; 10 ])
        backends)
    sizes;
  (* hash vs nested-loop join; ~4 right matches per left tuple *)
  let jn = if quick then 300 else 1_000 in
  let side =
    List.init jn (fun i -> Tuple.make [ Value.Int i; Value.Int (i mod (jn / 4)) ])
  in
  let hash =
    time_ns (fun () -> Algebra.join ~algo:`Hash ~left_col:1 ~right_col:1 side side)
  and nested =
    time_ns (fun () ->
        Algebra.join ~algo:`Nested ~left_col:1 ~right_col:1 side side)
  in
  Printf.printf "%-12s %-8s %7d %12.0f %12.0f %8.1fx\n" "join" "hash" jn hash
    nested (nested /. hash);
  Printf.printf
    "\n(planned-ns: executor through Plan.analyze; scan-ns: materialize + \
     filter;\n\
    \ visited: backend units touched by the planned path vs a full fold)\n";
  (* hand-rolled JSON: no dependency for the artifact *)
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"mode\": %S,\n  \"seed\": %d,\n  \"git_rev\": %S,\n  \
     \"results\": [\n"
    (if quick then "quick" else "full")
    seed (git_rev ());
  let rows = List.rev !results in
  List.iteri
    (fun i (scenario, backend, size, planned, naive, visited, full) ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"backend\": %S, \"size\": %d, \
         \"planned_ns\": %.0f, \"scan_ns\": %.0f, \"speedup\": %.2f, \
         \"units_visited\": %d, \"units_full\": %d}%s\n"
        scenario backend size planned naive (naive /. planned) visited full
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"join\": {\"rows\": %d, \"hash_ns\": %.0f, \"nested_ns\": %.0f, \
     \"speedup\": %.2f}\n}\n"
    jn hash nested (nested /. hash);
  close_out oc;
  Printf.printf "\nwrote %s\n" out

(* -- index: secondary/covering/derived index speedups ------------------------- *)

let index_bench ~quick ~seed ~out =
  let module R = Fdb_relational.Relation in
  let module Schema = Fdb_relational.Schema in
  let module Tuple = Fdb_relational.Tuple in
  let module Value = Fdb_relational.Value in
  let module Database = Fdb_relational.Database in
  let module Meter = Fdb_persistent.Meter in
  let module Txn = Fdb_txn.Txn in
  let module Plan = Fdb_query.Plan in
  let module Ix = Fdb_index.Index in
  section
    (Printf.sprintf "Indexes: probes and derived aggregates vs scans (%s)"
       (if quick then "quick" else "full"));
  let groups = 64 in
  let schema =
    Schema.make ~name:"R"
      ~cols:
        [ ("key", Schema.CInt); ("grp", Schema.CInt); ("val", Schema.CStr) ]
  in
  let tup k =
    Tuple.make
      [ Value.Int k; Value.Int (k mod groups);
        Value.Str (Printf.sprintf "s%06d" k) ]
  in
  let backends =
    [ R.List_backend; R.Avl_backend; R.Two3_backend; R.Btree_backend 8 ]
  in
  let sizes = if quick then [ 1_000 ] else [ 1_000; 10_000 ] in
  let samples = if quick then 9 else 21 in
  let budget = if quick then 0.002 else 0.01 in
  (* Batched samples against Sys.time's resolution: calibrate an iteration
     count whose batch exceeds the budget, then report per-run p50/p99 over
     [samples] batches. *)
  let time_pctls f =
    ignore (f ());
    let rec calib iters =
      let t0 = Sys.time () in
      for _ = 1 to iters do
        ignore (f ())
      done;
      let dt = Sys.time () -. t0 in
      if dt < budget && iters < 1_000_000 then calib (iters * 4) else iters
    in
    let iters = calib 1 in
    let sample () =
      let t0 = Sys.time () in
      for _ = 1 to iters do
        ignore (f ())
      done;
      (Sys.time () -. t0) *. 1e9 /. float_of_int iters
    in
    let ts = List.sort compare (List.init samples (fun _ -> sample ())) in
    let pctl p =
      let n = List.length ts in
      List.nth ts (max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
    in
    (pctl 0.50, pctl 0.99)
  in
  let results = ref [] in
  let record ~scenario ~backend ~size ~p50 ~p99 ~speedup =
    results := (scenario, backend, size, p50, p99, speedup) :: !results;
    Printf.printf "%-12s %-8s %7d %12.0f %12.0f %8.1fx\n" scenario backend
      size p50 p99 speedup
  in
  Printf.printf "%-12s %-8s %7s %12s %12s %9s\n" "scenario" "backend" "size"
    "p50-ns" "p99-ns" "speedup";
  let maintenance = ref [] in
  List.iter
    (fun size ->
      List.iter
        (fun backend ->
          let name = R.backend_name backend in
          let db =
            match
              Database.load
                (Database.create ~backend [ schema ])
                ~rel:"R"
                (List.init size tup)
            with
            | Ok db -> db
            | Error e -> failwith e
          in
          let r = Option.get (Database.relation db "R") in
          let sec_desc =
            { Plan.ix_name = "R_sec_val"; ix_rel = "R"; ix_col = "val";
              ix_kind = Plan.Ix_secondary }
          in
          let cov_desc =
            { Plan.ix_name = "R_cov_val"; ix_rel = "R"; ix_col = "val";
              ix_kind = Plan.Ix_covering [ "key"; "grp"; "val" ] }
          in
          let der_desc =
            { Plan.ix_name = "R_agg_grp"; ix_rel = "R"; ix_col = "grp";
              ix_kind = Plan.Ix_derived "key" }
          in
          let session_of descs = Ix.Session.create_exn descs db in
          (* point lookup on the unique val column; aggregate over one of
             the [groups] grp groups *)
          let sel_q =
            Fdb_query.Parser.parse_exn
              (Printf.sprintf "select * from R where val = \"s%06d\"" (size / 2))
          in
          let agg_q =
            Fdb_query.Parser.parse_exn "sum key from R where grp = 7"
          in
          let plain q = Txn.translate q in
          let indexed descs q =
            Txn.translate ~index:(Ix.Session.use (session_of descs)) q
          in
          let check what a b =
            let (ra, _) = a db and (rb, _) = b db in
            if not (Txn.response_equal ra rb) then begin
              Printf.printf "FAIL: %s diverges from the scan on %s/%d\n" what
                name size;
              exit 1
            end
          in
          let sec = indexed [ sec_desc ] sel_q in
          let cov = indexed [ cov_desc ] sel_q in
          let der = indexed [ der_desc ] agg_q in
          check "secondary" (plain sel_q) sec;
          check "covering" (plain sel_q) cov;
          check "derived" (plain agg_q) der;
          let time txn = time_pctls (fun () -> fst (txn db)) in
          let (scan50, scan99) = time (plain sel_q) in
          let (sec50, sec99) = time sec in
          let (cov50, cov99) = time cov in
          let (agg50, agg99) = time (plain agg_q) in
          let (der50, der99) = time der in
          record ~scenario:"select-scan" ~backend:name ~size ~p50:scan50
            ~p99:scan99 ~speedup:1.0;
          record ~scenario:"secondary" ~backend:name ~size ~p50:sec50
            ~p99:sec99 ~speedup:(scan50 /. sec50);
          record ~scenario:"covering" ~backend:name ~size ~p50:cov50
            ~p99:cov99 ~speedup:(scan50 /. cov50);
          record ~scenario:"agg-scan" ~backend:name ~size ~p50:agg50
            ~p99:agg99 ~speedup:1.0;
          record ~scenario:"agg-derived" ~backend:name ~size ~p50:der50
            ~p99:der99 ~speedup:(agg50 /. der50);
          (* Maintenance: one fresh insert through each index alone; the
             meter counts the path copy, shared_units the structure reuse. *)
          List.iter
            (fun desc ->
              let ix =
                match Ix.build desc r with
                | Ok ix -> ix
                | Error e -> failwith e
              in
              let m = Meter.create () in
              let ix' = Ix.apply ~meter:m ix ~removed:[] ~added:[ tup size ] in
              let (shared, total) = Ix.shared_units ~old:ix ix' in
              maintenance :=
                ( desc.Plan.ix_name, name, size, Meter.allocs m, shared,
                  total )
                :: !maintenance)
            [ sec_desc; cov_desc; der_desc ])
        backends)
    sizes;
  Printf.printf
    "\n%-12s %-8s %7s %9s %9s %9s %9s\n" "index" "backend" "size"
    "ins-alloc" "shared" "total" "sharing";
  List.iter
    (fun (ixn, backend, size, allocs, shared, total) ->
      Printf.printf "%-12s %-8s %7d %9d %9d %9d %8.1f%%\n" ixn backend size
        allocs shared total
        (100.0 *. float_of_int shared /. float_of_int (max 1 total)))
    (List.rev !maintenance);
  Printf.printf
    "\n(select/agg probe one of %d groups; speedup: scan p50 / indexed p50;\n\
    \ sharing: units of the post-insert index reused from the pre-insert one)\n"
    groups;
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"mode\": %S,\n  \"seed\": %d,\n  \"git_rev\": %S,\n  \
     \"groups\": %d,\n  \"results\": [\n"
    (if quick then "quick" else "full")
    seed (git_rev ()) groups;
  let rows = List.rev !results in
  List.iteri
    (fun i (scenario, backend, size, p50, p99, speedup) ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"backend\": %S, \"size\": %d, \
         \"p50_ns\": %.0f, \"p99_ns\": %.0f, \"speedup\": %.2f}%s\n"
        scenario backend size p50 p99 speedup
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"maintenance\": [\n";
  let mrows = List.rev !maintenance in
  List.iteri
    (fun i (ixn, backend, size, allocs, shared, total) ->
      Printf.fprintf oc
        "    {\"index\": %S, \"backend\": %S, \"size\": %d, \
         \"insert_allocs\": %d, \"shared_units\": %d, \"total_units\": %d, \
         \"sharing_ratio\": %.3f}%s\n"
        ixn backend size allocs shared total
        (float_of_int shared /. float_of_int (max 1 total))
        (if i = List.length mrows - 1 then "" else ","))
    mrows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" out

(* -- trace-overhead: zero allocations when the sink is disabled -------------- *)

let trace_overhead () =
  let module Trace = Fdb_obs.Trace in
  let module Event = Fdb_obs.Event in
  section "Trace overhead: guarded emission with the sink disabled";
  Trace.set_sink None;
  assert (not (Trace.enabled ()));
  (* The exact pattern every instrumented hot path uses: the event record
     is only constructed inside the [enabled] branch, so with the sink
     disabled each iteration must allocate nothing. *)
  let sink = ref 0 in
  let probe n =
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      if Trace.enabled () then
        Trace.emit_at ~ts:i ~site:0 (Event.Cell_write { cell = i });
      sink := !sink + i
    done;
    Gc.minor_words () -. w0
  in
  ignore (probe 1_000);
  (* [Gc.minor_words] itself boxes its float result; comparing two probe
     sizes cancels that constant, leaving only the per-iteration cost. *)
  let small = probe 1_000 in
  let large = probe 1_000_000 in
  let per_iter = (large -. small) /. 999_000.0 in
  Printf.printf
    "1k iterations: %.0f minor words; 1M iterations: %.0f minor words\n\
     per-iteration allocation: %.6f words\n"
    small large per_iter;
  (* A pipeline-level spot check: the same end-to-end run allocates the
     same with instrumentation compiled in but disabled, run to run. *)
  let w = W.generate W.default_spec in
  let tagged = Experiment.merged_workload w in
  let spec = Pipeline.db_spec_of_workload w in
  ignore (Pipeline.run spec tagged);
  let pipeline_words () =
    let w0 = Gc.minor_words () in
    ignore (Pipeline.run spec tagged);
    Gc.minor_words () -. w0
  in
  let a = pipeline_words () and b = pipeline_words () in
  Printf.printf
    "pipeline.run(50txn) minor words, disabled sink, two runs: %.0f / %.0f\n"
    a b;
  if per_iter > 0.001 then begin
    Printf.printf
      "FAIL: disabled tracing allocates %.6f words per operation\n" per_iter;
    exit 1
  end;
  if a <> b then begin
    Printf.printf "FAIL: disabled tracing made pipeline.run nondeterministic\n";
    exit 1
  end;
  Printf.printf "OK: disabled tracing allocates nothing on the hot path\n"

(* -- bechamel micro-benchmarks ---------------------------------------------- *)

let micro () =
  section "Micro-benchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let module IntAvl = Fdb_persistent.Avl.Make (Fdb_persistent.Ordered.Int) in
  let module Int23 = Fdb_persistent.Two3.Make (Fdb_persistent.Ordered.Int) in
  let module IntBt = Fdb_persistent.Btree.Make (Fdb_persistent.Ordered.Int) in
  let module IntPl = Fdb_persistent.Plist.Make (Fdb_persistent.Ordered.Int) in
  let n = 1000 in
  let keys = List.init n (fun i -> ((i * 7919) mod 10007) * 2) in
  let avl = IntAvl.of_list keys
  and t23 = Int23.of_list keys
  and bt = IntBt.of_list ~branching:8 keys
  and pl = IntPl.of_list keys in
  let w = W.generate W.default_spec in
  let tagged = Experiment.merged_workload w in
  let spec = Pipeline.db_spec_of_workload w in
  let query_src = "select val from R1 where key >= 10 and not (val = \"x\")" in
  (* the repository benchmark's scan-par image, 16 relations x 4k tuples,
     which a microbatch rebuilds and lists; and a payload the size of the
     ingest image's genesis base (4.9 MB) *)
  let scan =
    Fdb_workload.Openloop.generate
      { Fdb_workload.Openloop.relations = 16; initial_tuples = 16 * 4_000;
        tenants = 4; seed = 1;
        phases =
          [ { Fdb_workload.Openloop.name = "none"; txns = 0;
              mix = Fdb_workload.Openloop.read_mix; storm = None } ] }
  in
  let scan_spec =
    { Pipeline.schemas = scan.Fdb_workload.Openloop.schemas;
      initial = scan.Fdb_workload.Openloop.initial }
  in
  let scan_db = Pipeline.initial_database scan_spec in
  let (scan_name, scan_rel) =
    match Fdb_relational.Database.slots scan_db with
    | slot :: _ -> slot
    | [] -> invalid_arg "micro: empty scan image"
  in
  (* the first relation holds keys 0, 16, ..., 63984: [16000, 18000) is 125
     of its 4000 tuples, and the max below 32000 sits mid-relation *)
  let count_lo = Fdb_relational.Relation.Inclusive (Fdb_relational.Value.Int 16_000)
  and count_hi = Fdb_relational.Relation.Exclusive (Fdb_relational.Value.Int 18_000) in
  let range_count () =
    Fdb_relational.Relation.range_fold ~lo:count_lo ~hi:count_hi
      (fun n _ -> n + 1)
      0 scan_rel
  in
  if range_count () <> 125 then invalid_arg "micro: scan image changed shape";
  let max_txn =
    Fdb_txn.Txn.translate
      (Fdb_query.Parser.parse_exn
         (Printf.sprintf "max key from %s where key < 32000" scan_name))
  in
  let base_bytes = String.init 4_900_000 (fun i -> Char.unsafe_chr ((i * 7919) land 0xFF)) in
  let tests =
    [ Test.make ~name:"plist.insert(n=1000)"
        (Staged.stage (fun () -> ignore (IntPl.insert 501 pl)));
      Test.make ~name:"avl.insert(n=1000)"
        (Staged.stage (fun () -> ignore (IntAvl.insert 501 avl)));
      Test.make ~name:"two3.insert(n=1000)"
        (Staged.stage (fun () -> ignore (Int23.insert 501 t23)));
      Test.make ~name:"btree.insert(n=1000)"
        (Staged.stage (fun () -> ignore (IntBt.insert 501 bt)));
      Test.make ~name:"avl.member(n=1000)"
        (Staged.stage (fun () -> ignore (IntAvl.member 501 avl)));
      Test.make ~name:"query.parse"
        (Staged.stage (fun () ->
             ignore (Fdb_query.Parser.parse_exn query_src)));
      Test.make ~name:"initial_database(16x4k)"
        (Staged.stage (fun () -> ignore (Pipeline.initial_database scan_spec)));
      Test.make ~name:"relation.to_list(btree-8,4k)"
        (Staged.stage (fun () -> ignore (Fdb_relational.Relation.to_list scan_rel)));
      Test.make ~name:"range count(btree-8,125/4k)"
        (Staged.stage (fun () -> ignore (range_count ())));
      Test.make ~name:"max key where key<k(btree-8,4k)"
        (Staged.stage (fun () -> ignore (max_txn scan_db)));
      Test.make ~name:"wire.crc32c(4.9MB)"
        (Staged.stage (fun () -> ignore (Fdb_wire.Wire.crc32c base_bytes)));
      Test.make ~name:"pipeline.run(50txn,ideal)"
        (Staged.stage (fun () -> ignore (Pipeline.run spec tagged)));
      Test.make ~name:"pipeline.reference(50txn)"
        (Staged.stage (fun () -> ignore (Pipeline.reference spec tagged)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "%-30s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw =
            Benchmark.run cfg Instance.[ monotonic_clock ] elt
          in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (v :: _) -> v
            | _ -> nan
          in
          Printf.printf "%-30s %16.1f\n" (Test.Elt.name elt) ns)
        (Test.elements test))
    tests

let all () =
  table1 ();
  table2 ();
  table3 ();
  fig21 ();
  fig22 ();
  fig23 ();
  fig31 ();
  ablation_repr ();
  ablation_topo ();
  ablation_merge ();
  ablation_semantics ();
  ablation_engine_repr ();
  ablation_eval_mode ();
  scaling ();
  recover ();
  micro ()

(* The [--quick] [--seed N] [-o FILE] options shared by the subcommands
   that write a BENCH_*.json artifact; [out] is the default artifact path. *)
let with_bench_args name ~out run =
  let quick = ref false and seed = ref 1 and out = ref out in
  let i = ref 2 in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
    | "--quick" -> quick := true
    | "--seed" when !i + 1 < Array.length Sys.argv ->
        incr i;
        seed := int_of_string Sys.argv.(!i)
    | "-o" | "--output" when !i + 1 < Array.length Sys.argv ->
        incr i;
        out := Sys.argv.(!i)
    | a ->
        Printf.eprintf "%s: unknown argument %S\n" name a;
        exit 1);
    incr i
  done;
  run ~quick:!quick ~seed:!seed ~out:!out

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match cmd with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "fig21" -> fig21 ()
  | "fig22" -> fig22 ()
  | "fig23" -> fig23 ()
  | "fig31" -> fig31 ()
  | "ablation-repr" -> ablation_repr ()
  | "ablation-topo" -> ablation_topo ()
  | "ablation-merge" -> ablation_merge ()
  | "ablation-semantics" -> ablation_semantics ()
  | "ablation-engine-repr" -> ablation_engine_repr ()
  | "ablation-eval-mode" -> ablation_eval_mode ()
  | "scaling" -> scaling ()
  | "recover" -> recover ()
  | "plan" -> with_bench_args "plan" ~out:"BENCH_plan.json" plan_bench
  | "index" -> with_bench_args "index" ~out:"BENCH_index.json" index_bench
  | "trace-overhead" -> trace_overhead ()
  | "micro" -> micro ()
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown bench %S (try table1|table2|table3|fig21|fig22|fig23|fig31|\
         ablation-repr|ablation-topo|ablation-merge|ablation-semantics|\
         ablation-engine-repr|ablation-eval-mode|scaling|recover|\
         plan [--quick] [--seed N] [-o FILE]|\
         index [--quick] [--seed N] [-o FILE]|trace-overhead|micro|all)\n"
        other;
      exit 1
